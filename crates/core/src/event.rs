//! Typed change events: the delta stream at the heart of the repository.
//!
//! Every successful mutation of a [`crate::repo::Repository`] records one
//! [`RepoEvent`]. Downstream materializations — the search index
//! ([`crate::index::SearchIndex::apply`]), the wiki
//! ([`crate::wiki_bx::WikiBx::sync_changed`]) and persistence
//! ([`crate::storage::StorageBackend`]) — consume these deltas instead of
//! whole [`RepositorySnapshot`]s, so their maintenance cost scales with
//! the *change*, not with the repository.
//!
//! Events are **applied** deltas: each one carries the post-processed data
//! the repository actually stored (e.g. the entry with its version already
//! bumped and comments carried forward), so replaying them with
//! [`apply_event`] is a pure, deterministic fold that needs none of the
//! permission or validation machinery. This is what makes the append-only
//! event-log backend's snapshot+replay recovery exact.
//!
//! The payloads are newtype-variant structs rather than struct variants
//! because the vendored serde stand-in derives only unit and newtype
//! variants.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::curation::EntryStatus;
use crate::principal::{Principal, Role};
use crate::repo::{EntryId, EntryRecord, RepositorySnapshot};
use crate::template::{Comment, ExampleEntry};

/// The founding of a repository: its name and initial curators.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Founded {
    /// Repository name.
    pub name: String,
    /// The initial curator accounts (roles already forced to Curator).
    pub curators: Vec<Principal>,
}

/// A new account was registered (role as stored, i.e. Member).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Registered {
    /// The stored principal.
    pub principal: Principal,
}

/// A curator changed an account's role.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoleGranted {
    /// The account whose role changed.
    pub account: String,
    /// The new role.
    pub role: Role,
}

/// A new entry version exists: the payload is the version exactly as it
/// entered the history (used by contribute, revise and approve events).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryDelta {
    /// The entry's stable identifier.
    pub id: EntryId,
    /// The stored version (post-validation, version already assigned).
    pub entry: ExampleEntry,
}

/// A comment was attached to an entry's latest version.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Commented {
    /// The entry commented on.
    pub id: EntryId,
    /// The stored comment.
    pub comment: Comment,
}

/// A status-only transition (review requested / changes requested).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryRef {
    /// The entry whose status moved.
    pub id: EntryId,
}

/// One repository change. The variants mirror the repository's mutation
/// API one-to-one; each is a self-contained, deterministic state
/// transformer (see [`apply_event`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepoEvent {
    /// `Repository::found` — establishes name and curator accounts.
    Founded(Founded),
    /// `Repository::register`.
    Registered(Registered),
    /// `Repository::grant_role`.
    RoleGranted(RoleGranted),
    /// `Repository::contribute` — a fresh record, status Provisional.
    Contributed(EntryDelta),
    /// `Repository::revise` — appends a version, status Provisional.
    Revised(EntryDelta),
    /// `Repository::approve` — appends the promoted version, status
    /// Approved.
    Approved(EntryDelta),
    /// `Repository::comment`.
    Commented(Commented),
    /// `Repository::request_review` — status UnderReview.
    ReviewRequested(EntryRef),
    /// `Repository::request_changes` — status back to Provisional.
    ChangesRequested(EntryRef),
}

impl RepoEvent {
    /// The entry this event touches, if any — the key downstream dirty
    /// sets are built from. Account events touch no entry.
    pub fn touched(&self) -> Option<&EntryId> {
        match self {
            RepoEvent::Founded(_) | RepoEvent::Registered(_) | RepoEvent::RoleGranted(_) => None,
            RepoEvent::Contributed(d) | RepoEvent::Revised(d) | RepoEvent::Approved(d) => {
                Some(&d.id)
            }
            RepoEvent::Commented(c) => Some(&c.id),
            RepoEvent::ReviewRequested(r) | RepoEvent::ChangesRequested(r) => Some(&r.id),
        }
    }

    /// Does this event change the *indexed text* of its entry? Only
    /// contributions and revisions do. Approvals append a version whose
    /// indexed fields are identical (only version and reviewers change);
    /// comments, status moves and account changes touch no indexed text.
    /// The wiki renders versions, reviewers and comments too, so the wiki
    /// dirty set uses [`RepoEvent::touched`], not this.
    pub fn changes_entry_text(&self) -> bool {
        matches!(self, RepoEvent::Contributed(_) | RepoEvent::Revised(_))
    }

    /// Does this event change the *rendered wiki page* of its entry?
    /// Versions, reviewers and comments are all rendered, so approvals
    /// and comments count alongside contributions and revisions; workflow
    /// status is not rendered, so status-only transitions do not.
    pub fn changes_rendered_page(&self) -> bool {
        matches!(
            self,
            RepoEvent::Contributed(_)
                | RepoEvent::Revised(_)
                | RepoEvent::Approved(_)
                | RepoEvent::Commented(_)
        )
    }
}

/// A push-mode consumer of committed change events.
///
/// Sinks registered with [`crate::repo::Repository::subscribe`] receive
/// every committed [`RepoEvent`] *at mutation time*, while the mutated
/// shard's (or the account map's) write guard is still held — which is
/// exactly what makes the delivery order agree with the per-entry
/// application order. Two rules follow from that delivery point:
///
/// * **No re-entrancy.** A sink must not call back into the publishing
///   `Repository` (it would deadlock on the lock it is being called
///   under). Hand the event to another thread if repository state is
///   needed — see [`crate::pipeline::BackgroundWriter`].
/// * **Be quick or be buffered.** Delivery blocks the mutating caller, so
///   a slow sink throttles writers on that shard. Sinks that do real work
///   should enqueue and return (the background writer's bounded channel
///   is the canonical shape; its backpressure is deliberate).
///
/// Events arriving at one sink are totally ordered per entry and per
/// account; events touching distinct entries may interleave differently
/// at different sinks, but all such interleavings [`replay`] to the same
/// state (the events commute).
pub trait EventSink: Send + Sync {
    /// Deliver one committed event. Must not call back into the
    /// publishing repository.
    fn accept(&self, event: &RepoEvent);

    /// The publisher's state was *replaced* rather than advanced event by
    /// event — a replica re-based across a checkpoint, a federation
    /// re-read a source from scratch, or a sink was subscribed to an
    /// already-populated store. Sinks maintaining a derived view should
    /// rebuild from `base`; the default ignores the notification, which
    /// is right for forward-only sinks like the durability pipeline
    /// (their event stream is the truth, not the publisher's state).
    fn rebased(&self, _base: &RepositorySnapshot) {}
}

/// Apply one event to snapshot state. Events are replayed in recording
/// order; an event referring to a missing entry (possible only if a log
/// was truncated by hand) is ignored rather than panicking.
pub fn apply_event(state: &mut RepositorySnapshot, event: &RepoEvent) {
    match event {
        RepoEvent::Founded(f) => {
            state.name = f.name.clone();
            for c in &f.curators {
                state.accounts.insert(c.name.clone(), c.clone());
            }
        }
        RepoEvent::Registered(r) => {
            state
                .accounts
                .insert(r.principal.name.clone(), r.principal.clone());
        }
        RepoEvent::RoleGranted(g) => {
            if let Some(p) = state.accounts.get_mut(&g.account) {
                p.role = g.role;
            }
        }
        RepoEvent::Contributed(d) => {
            state.records.insert(
                d.id.clone(),
                EntryRecord {
                    status: EntryStatus::Provisional,
                    history: vec![d.entry.clone()],
                },
            );
        }
        RepoEvent::Revised(d) => {
            if let Some(record) = state.records.get_mut(&d.id) {
                record.history.push(d.entry.clone());
                record.status = EntryStatus::Provisional;
            }
        }
        RepoEvent::Approved(d) => {
            if let Some(record) = state.records.get_mut(&d.id) {
                record.history.push(d.entry.clone());
                record.status = EntryStatus::Approved;
            }
        }
        RepoEvent::Commented(c) => {
            if let Some(record) = state.records.get_mut(&c.id) {
                if let Some(latest) = record.history.last_mut() {
                    latest.comments.push(c.comment.clone());
                }
            }
        }
        RepoEvent::ReviewRequested(r) => {
            if let Some(record) = state.records.get_mut(&r.id) {
                record.status = EntryStatus::UnderReview;
            }
        }
        RepoEvent::ChangesRequested(r) => {
            if let Some(record) = state.records.get_mut(&r.id) {
                record.status = EntryStatus::Provisional;
            }
        }
    }
}

/// Fold a whole event sequence over a base snapshot.
///
/// This sequential fold is the **oracle**: the sharded fold behind
/// [`crate::storage::SegmentedLog::restore_dir_on`] is property-tested
/// to produce bit-identical snapshots.
pub fn replay(mut base: RepositorySnapshot, events: &[RepoEvent]) -> RepositorySnapshot {
    for event in events {
        apply_event(&mut base, event);
    }
    base
}

/// Apply one *per-entry* event to that entry's record slot — the same
/// transition [`apply_event`] performs on `state.records[id]`, expressed
/// over an owned `Option<EntryRecord>` so a shard worker can fold an
/// entry's events without holding the whole snapshot. `None` stays `None`
/// for events on a missing entry (a hand-truncated log), exactly as
/// [`apply_event`] ignores them. Account events
/// (`Founded`/`Registered`/`RoleGranted`) are not per-entry and must not
/// reach this function.
fn apply_to_record(slot: &mut Option<EntryRecord>, event: &RepoEvent) {
    match event {
        RepoEvent::Contributed(d) => {
            *slot = Some(EntryRecord {
                status: EntryStatus::Provisional,
                history: vec![d.entry.clone()],
            });
        }
        RepoEvent::Revised(d) => {
            if let Some(record) = slot {
                record.history.push(d.entry.clone());
                record.status = EntryStatus::Provisional;
            }
        }
        RepoEvent::Approved(d) => {
            if let Some(record) = slot {
                record.history.push(d.entry.clone());
                record.status = EntryStatus::Approved;
            }
        }
        RepoEvent::Commented(c) => {
            if let Some(record) = slot {
                if let Some(latest) = record.history.last_mut() {
                    latest.comments.push(c.comment.clone());
                }
            }
        }
        RepoEvent::ReviewRequested(_) => {
            if let Some(record) = slot {
                record.status = EntryStatus::UnderReview;
            }
        }
        RepoEvent::ChangesRequested(_) => {
            if let Some(record) = slot {
                record.status = EntryStatus::Provisional;
            }
        }
        RepoEvent::Founded(_) | RepoEvent::Registered(_) | RepoEvent::RoleGranted(_) => {
            unreachable!("account events are barriers, never sharded")
        }
    }
}

/// Fold one barrier-free run of per-entry events (`range` into `events`)
/// into `state.records`, sharding entries across the pool. Each distinct
/// entry's events fold on exactly one worker, in log order, so the
/// per-entry result is identical to the sequential fold; entries commute
/// (per-entry events touch only their own record), so the merged map is
/// identical too.
/// One entry's slice of a shard: the id, its record moved out of the
/// snapshot (`None` if the log never materialised it), and the indices
/// of its events within the run.
type ShardEntry = (EntryId, Option<EntryRecord>, Vec<usize>);
/// What a shard job hands back: each entry with its folded record.
type FoldedShard = Vec<(EntryId, Option<EntryRecord>)>;

fn fold_run_sharded(
    state: &mut RepositorySnapshot,
    events: &Arc<Vec<RepoEvent>>,
    range: std::ops::Range<usize>,
    pool: &crate::runtime::WorkerPool,
) {
    let mut buckets: BTreeMap<EntryId, Vec<usize>> = BTreeMap::new();
    for idx in range {
        let id = events[idx]
            .touched()
            .expect("runs contain only per-entry events");
        buckets.entry(id.clone()).or_default().push(idx);
    }
    if buckets.is_empty() {
        return;
    }
    // Move each touched entry's record out of the snapshot and chunk the
    // entries into one shard per worker.
    let shard_count = pool.threads().min(buckets.len());
    let per_shard = buckets.len().div_ceil(shard_count);
    let mut shards: Vec<Vec<ShardEntry>> = vec![Vec::new(); shard_count];
    for (i, (id, idxs)) in buckets.into_iter().enumerate() {
        let record = state.records.remove(&id);
        shards[i / per_shard].push((id, record, idxs));
    }
    let jobs: Vec<Box<dyn FnOnce() -> FoldedShard + Send>> = shards
        .into_iter()
        .map(|shard| {
            let events = Arc::clone(events);
            Box::new(move || {
                shard
                    .into_iter()
                    .map(|(id, mut record, idxs)| {
                        for idx in idxs {
                            apply_to_record(&mut record, &events[idx]);
                        }
                        (id, record)
                    })
                    .collect::<Vec<_>>()
            }) as Box<dyn FnOnce() -> FoldedShard + Send>
        })
        .collect();
    for (id, record) in pool.scatter(jobs).into_iter().flatten() {
        // `None` means the events never materialised the entry (e.g. a
        // revise in a hand-truncated log) — the sequential fold would
        // have left the map without it too.
        if let Some(record) = record {
            state.records.insert(id, record);
        }
    }
}

/// [`replay`], partitioned across a [`crate::runtime::WorkerPool`]:
/// per-entry events route to their entry's shard and fold concurrently;
/// account events (`Founded`/`Registered`/`RoleGranted`) are **ordered
/// barriers** — every run of per-entry events before a barrier completes
/// before the barrier applies, preserving the sequential semantics
/// exactly. With a 1-thread pool this degrades to the sequential
/// [`replay`].
///
/// Bit-identical to `replay(base, &events)` on every input: per-entry
/// events touching distinct entries commute, each entry folds in log
/// order on one worker, and barriers are the only events that read or
/// write shared state (`name`, `accounts`).
pub(crate) fn replay_parallel(
    base: RepositorySnapshot,
    events: Vec<RepoEvent>,
    pool: &crate::runtime::WorkerPool,
) -> RepositorySnapshot {
    replay_parallel_with(base, events, pool, apply_event)
}

/// [`replay_parallel`] with the barrier application swapped out — a
/// [`crate::replica::Federation`] folds its sources' events (namespaced,
/// or as-is for the identity source) under its own name, so their
/// `Founded` barrier names the merged snapshot only while it is unnamed,
/// and it passes its own barrier function. Per-entry runs shard
/// identically either way (the two barrier functions only differ on
/// account events, which are always barriers).
pub(crate) fn replay_parallel_with(
    base: RepositorySnapshot,
    events: Vec<RepoEvent>,
    pool: &crate::runtime::WorkerPool,
    apply_barrier: fn(&mut RepositorySnapshot, &RepoEvent),
) -> RepositorySnapshot {
    if pool.threads() <= 1 {
        let mut state = base;
        for event in &events {
            apply_barrier(&mut state, event);
        }
        return state;
    }
    let mut state = base;
    let events = Arc::new(events);
    let mut run_start = 0usize;
    for i in 0..=events.len() {
        let at_barrier = i == events.len() || events[i].touched().is_none();
        if !at_barrier {
            continue;
        }
        if i > run_start {
            fold_run_sharded(&mut state, &events, run_start..i, pool);
        }
        if i < events.len() {
            apply_barrier(&mut state, &events[i]);
        }
        run_start = i + 1;
    }
    state
}

/// The set of entries whose *rendered pages* a batch of events dirties —
/// the dirty set handed to [`crate::wiki_bx::WikiBx::sync_changed`].
/// Status-only transitions are excluded (workflow status is never
/// rendered), so they cost no page render.
pub fn dirty_set(events: &[RepoEvent]) -> BTreeSet<EntryId> {
    events
        .iter()
        .filter(|e| e.changes_rendered_page())
        .filter_map(|e| e.touched().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::Repository;
    use crate::template::ExampleType;

    fn entry(title: &str, author: &str) -> ExampleEntry {
        ExampleEntry::builder(title)
            .of_type(ExampleType::Precise)
            .overview("An overview. Short.")
            .models("Models described here.")
            .consistency("Consistency described here.")
            .restoration("Forward fix.", "Backward fix.")
            .discussion("Some discussion.")
            .author(author)
            .build()
            .expect("valid entry")
    }

    /// Replaying every recorded event from an empty base reconstructs the
    /// live repository exactly — the core guarantee the event-log backend
    /// rests on.
    #[test]
    fn replay_reconstructs_full_history() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();
        r.grant_role("c", "bob", Role::Reviewer).unwrap();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        r.comment("bob", &id, "2014-03-28", "Key-based?").unwrap();
        r.revise("alice", &id, entry("COMPOSERS", "alice")).unwrap();
        r.request_review("alice", &id).unwrap();
        r.approve("bob", &id).unwrap();

        let events = r.drain_events();
        assert_eq!(events.len(), 9);
        let replayed = replay(RepositorySnapshot::empty(""), &events);
        assert_eq!(replayed, r.snapshot());
    }

    #[test]
    fn failed_mutations_record_nothing() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        let founded = r.drain_events();
        assert_eq!(founded.len(), 1);
        assert!(r.contribute("ghost", entry("X Y", "ghost")).is_err());
        assert!(r.register(Principal::curator("c")).is_err());
        assert!(r.drain_events().is_empty());
    }

    #[test]
    fn touched_and_text_change_classification() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        r.comment("alice", &id, "2014-01-01", "hm").unwrap();
        let events = r.drain_events();

        let touched = dirty_set(&events);
        assert_eq!(touched.len(), 1);
        assert!(touched.contains(&id));

        let text_changing: Vec<&RepoEvent> =
            events.iter().filter(|e| e.changes_entry_text()).collect();
        assert_eq!(text_changing.len(), 1, "only the contribution");
    }

    #[test]
    fn events_roundtrip_through_json() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        r.request_review("alice", &id).unwrap();
        for event in r.drain_events() {
            let json = serde_json::to_string(&event).expect("events serialise");
            let back: RepoEvent = serde_json::from_str(&json).expect("events deserialise");
            assert_eq!(back, event);
        }
    }

    /// A history interleaving account barriers with per-entry bursts
    /// folds identically through the sharded parallel replay.
    #[test]
    fn replay_parallel_matches_sequential() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();
        let mut ids = Vec::new();
        for i in 0..7 {
            ids.push(
                r.contribute("alice", entry(&format!("ENTRY NUMBER {i}"), "alice"))
                    .unwrap(),
            );
        }
        r.grant_role("c", "bob", Role::Reviewer).unwrap(); // barrier mid-stream
        for (i, id) in ids.iter().enumerate() {
            r.comment("bob", id, "2014-03-28", &format!("comment {i}"))
                .unwrap();
            r.revise("alice", id, entry(&format!("ENTRY NUMBER {i}"), "alice"))
                .unwrap();
        }
        r.request_review("alice", &ids[0]).unwrap();
        r.approve("bob", &ids[0]).unwrap();
        let events = r.drain_events();

        let sequential = replay(RepositorySnapshot::empty(""), &events);
        for threads in [1, 2, 4, 8] {
            let pool = crate::runtime::WorkerPool::named("bx-worker", threads);
            let parallel = replay_parallel(RepositorySnapshot::empty(""), events.clone(), &pool);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    /// Orphan per-entry events (hand-truncated log) are ignored by both
    /// folds identically.
    #[test]
    fn replay_parallel_tolerates_gaps() {
        let id = EntryId::from_title("GHOST");
        let orphans = vec![
            RepoEvent::Revised(EntryDelta {
                id: id.clone(),
                entry: entry("GHOST", "a"),
            }),
            RepoEvent::ReviewRequested(EntryRef { id }),
        ];
        let pool = crate::runtime::WorkerPool::named("bx-worker", 4);
        let out = replay_parallel(RepositorySnapshot::empty("bx"), orphans, &pool);
        assert!(out.records.is_empty());
    }

    #[test]
    fn replay_tolerates_gaps() {
        // A hand-truncated log referring to a missing entry must not panic.
        let id = EntryId::from_title("GHOST");
        let orphan_events = vec![
            RepoEvent::Revised(EntryDelta {
                id: id.clone(),
                entry: entry("GHOST", "a"),
            }),
            RepoEvent::Commented(Commented {
                id: id.clone(),
                comment: Comment {
                    author: "a".into(),
                    date: "2014-01-01".into(),
                    text: "t".into(),
                },
            }),
            RepoEvent::ReviewRequested(EntryRef { id }),
        ];
        let out = replay(RepositorySnapshot::empty("bx"), &orphan_events);
        assert!(out.records.is_empty());
    }
}
