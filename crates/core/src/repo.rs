//! The repository: stable identifiers, version history, permission-checked
//! curation workflows.
//!
//! Storage is a lock-striped sharded store: entries are partitioned across
//! N shards by a hash of their [`EntryId`], each shard behind its own
//! `RwLock`, with accounts behind a separate lock — so mutations of
//! distinct entries proceed in parallel instead of serialising on one
//! global lock.
//!
//! Every successful mutation is additionally **pushed**, at commit time,
//! to every subscribed [`EventSink`] — the event bus downstream
//! materializations hang off (incremental index maintenance, dirty-tracked
//! wiki sync, the background durability pipeline, read replicas). The
//! legacy pull API survives as the built-in *journal sink*: a bounded
//! buffer [`Repository::drain_events`] empties. See the
//! "drain-or-subscribe contract" on [`Repository::drain_events`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use serde::{Deserialize, Serialize};

use crate::curation::EntryStatus;
use crate::error::RepoError;
use crate::event::{
    Commented, EntryDelta, EntryRef, EventSink, Founded, Registered, RepoEvent, RoleGranted,
};
use crate::principal::{Principal, Role};
use crate::template::{Comment, ExampleEntry};
use crate::version::Version;

/// A stable entry identifier (the slug of the entry's title). "We need …
/// a stable reference for each example … so that it can be referenced in
/// a paper with some hope that that reference will persist."
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntryId(pub String);

impl EntryId {
    /// Derive from a title.
    pub fn from_title(title: &str) -> EntryId {
        EntryId(crate::template::slug_of(title))
    }

    /// The slug text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The wiki page name for this entry ("examples:composers").
    pub fn page_name(&self) -> String {
        format!("examples:{}", self.0)
    }
}

impl fmt::Display for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One entry's full record: status plus every version ever published.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryRecord {
    /// Workflow status.
    pub status: EntryStatus,
    /// All versions, oldest first; "keep old versions of examples
    /// available, so that old references can still be followed".
    pub history: Vec<ExampleEntry>,
}

impl EntryRecord {
    /// The latest version.
    pub fn latest(&self) -> &ExampleEntry {
        self.history
            .last()
            .expect("records always hold at least one version")
    }
}

/// A point-in-time, lock-free copy of the repository contents — the unit
/// the wiki bx, the manuscript export and persistence all work over.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepositorySnapshot {
    /// Repository name.
    pub name: String,
    /// All records, keyed by id.
    pub records: BTreeMap<EntryId, EntryRecord>,
    /// All registered accounts, keyed by name.
    pub accounts: BTreeMap<String, Principal>,
}

impl Default for RepositorySnapshot {
    fn default() -> Self {
        RepositorySnapshot::empty("")
    }
}

impl RepositorySnapshot {
    /// An empty snapshot — the base state event replay starts from.
    pub fn empty(name: &str) -> RepositorySnapshot {
        RepositorySnapshot {
            name: name.to_string(),
            records: BTreeMap::new(),
            accounts: BTreeMap::new(),
        }
    }
}

/// Default shard count: enough stripes that concurrent curation on
/// distinct entries rarely contends, small enough that a full snapshot
/// still just walks a handful of maps.
pub(crate) const DEFAULT_SHARD_COUNT: usize = 16;

#[derive(Debug, Default)]
struct Shard {
    records: BTreeMap<EntryId, EntryRecord>,
}

/// FNV-1a over the slug bytes: stable across runs (no `RandomState`), so
/// shard placement is deterministic and tests/benches are reproducible.
fn shard_index(id: &EntryId, shard_count: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.0.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shard_count as u64) as usize
}

/// Default capacity of the built-in journal sink: generous enough that a
/// workload which drains at any reasonable cadence never hits it, small
/// enough that a repository whose owner *never* drains stops accumulating
/// memory (and starts counting overflow) instead of growing forever.
pub(crate) const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// The built-in bounded journal: the [`EventSink`] behind
/// [`Repository::drain_events`]. When the buffer is full, incoming events
/// are *discarded* (newest-dropped), a warning is printed once, and the
/// overflow counter ticks — so an owner who forgot to drain loses tail
/// events from the *journal* (never from the repository itself or from
/// other sinks) and can detect it via [`Repository::journal_overflow`].
struct JournalSink {
    buf: Mutex<Vec<RepoEvent>>,
    capacity: AtomicUsize,
    /// Lifetime total of discarded events (diagnostic).
    overflow: AtomicU64,
    /// Discarded events since the last drain — what tells a drain
    /// consumer whether *this* batch is gapped. Reset by the drain.
    overflow_since_drain: AtomicU64,
}

impl JournalSink {
    fn new(capacity: usize) -> JournalSink {
        JournalSink {
            buf: Mutex::new(Vec::new()),
            capacity: AtomicUsize::new(capacity),
            overflow: AtomicU64::new(0),
            overflow_since_drain: AtomicU64::new(0),
        }
    }
}

impl EventSink for JournalSink {
    fn accept(&self, event: &RepoEvent) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            // Journal disabled (push-only deployment): no clone, no
            // buffering, no overflow accounting, no warning.
            return;
        }
        let mut buf = self.buf.lock();
        if buf.len() < capacity {
            buf.push(event.clone());
        } else {
            // Both counters tick under the buf lock, so a concurrent
            // drain observes buffer and counters consistently.
            let prior = self.overflow.fetch_add(1, Ordering::Relaxed);
            self.overflow_since_drain.fetch_add(1, Ordering::Relaxed);
            drop(buf);
            if prior == 0 {
                eprintln!(
                    "bx-core: journal sink overflow — events are being dropped; \
                     drain_events() more often, raise set_journal_capacity(), \
                     or subscribe() a push sink (see Repository::drain_events)"
                );
            }
        }
    }
}

/// The curated repository. Thread-safe: entry records live in lock-striped
/// shards keyed by [`EntryId`] hash, accounts behind their own lock.
/// Lock order is always accounts → shard → sinks, so the paths cannot
/// deadlock (sinks must not call back into the repository — see
/// [`EventSink`]).
pub struct Repository {
    name: String,
    accounts: RwLock<BTreeMap<String, Principal>>,
    shards: Box<[RwLock<Shard>]>,
    /// The built-in bounded journal (also present in `sinks`); kept
    /// separately so `drain_events` can reach it concretely.
    journal: Arc<JournalSink>,
    /// Every subscribed sink, the journal first. Events are delivered to
    /// all of them at commit time, in subscription order.
    sinks: RwLock<Vec<Arc<dyn EventSink>>>,
}

impl fmt::Debug for Repository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Repository")
            .field("name", &self.name)
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .finish()
    }
}

/// Guard pair returned by `Repository::checked_shard`: the accounts read
/// guard (kept alive so the role check stays valid) plus the target
/// shard's write guard.
type CheckedShard<'a> = (
    RwLockReadGuard<'a, BTreeMap<String, Principal>>,
    RwLockWriteGuard<'a, Shard>,
);

fn empty_shards(count: usize) -> Box<[RwLock<Shard>]> {
    (0..count.max(1))
        .map(|_| RwLock::new(Shard::default()))
        .collect()
}

impl Repository {
    /// Found a repository with its initial curators ("overall editorial
    /// control … is the responsibility of a small group of curators,
    /// initially ourselves").
    pub fn found(name: &str, curators: Vec<Principal>) -> Repository {
        Repository::with_shards(name, curators, DEFAULT_SHARD_COUNT)
    }

    /// Found a repository with an explicit shard count (`found` uses
    /// 16 shards). A count of 1 degenerates to the old
    /// single-lock layout; behaviour is identical for every count.
    pub fn with_shards(name: &str, curators: Vec<Principal>, shard_count: usize) -> Repository {
        let mut accounts = BTreeMap::new();
        for mut c in curators {
            c.role = Role::Curator;
            accounts.insert(c.name.clone(), c);
        }
        let founded = RepoEvent::Founded(Founded {
            name: name.to_string(),
            curators: accounts.values().cloned().collect(),
        });
        let journal = Arc::new(JournalSink::new(DEFAULT_JOURNAL_CAPACITY));
        let repo = Repository {
            name: name.to_string(),
            accounts: RwLock::new(accounts),
            shards: empty_shards(shard_count),
            journal: journal.clone(),
            sinks: RwLock::new(vec![journal]),
        };
        repo.record(founded);
        repo
    }

    /// The repository's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shard guarding `id`. Same id → same shard, so per-entry
    /// operations (including duplicate checks) need exactly one stripe.
    fn shard_for(&self, id: &EntryId) -> &RwLock<Shard> {
        &self.shards[shard_index(id, self.shards.len())]
    }

    /// Record a delta: push it to every subscribed sink. Called while the
    /// mutated shard's (or the account map's) write guard is still held,
    /// so each sink observes events in the per-entry (and per-account)
    /// application order.
    fn record(&self, event: RepoEvent) {
        for sink in self.sinks.read().iter() {
            sink.accept(&event);
        }
    }

    /// Subscribe a push-mode event sink: from this call on, every
    /// committed mutation is delivered to `sink` at commit time (see
    /// [`EventSink`] for the delivery contract — no re-entrancy, delivery
    /// blocks the mutating caller).
    ///
    /// Subscription is *forward-only*: the sink sees no past events. To
    /// also hand the sink the pending (not-yet-drained) history in one
    /// race-free step, use [`Repository::subscribe_with_backfill`]; to
    /// seed a durability sink with the *full* history instead, checkpoint
    /// [`Repository::snapshot`] into its backend before subscribing.
    ///
    /// A sink stays subscribed, and its `Arc` held, for the repository's
    /// lifetime.
    pub fn subscribe(&self, sink: Arc<dyn EventSink>) {
        self.sinks.write().push(sink);
    }

    /// Subscribe `sink` and, atomically with the subscription, deliver it
    /// a copy of every event still pending in the journal — so no event
    /// can fall between "backfill" and "first push". The handoff holds
    /// the sink registry's write lock, which every committing mutation
    /// takes for reading: a concurrent mutation either completes first
    /// (its event is in the backfilled journal copy) or blocks until the
    /// new sink is registered (its event is pushed). The journal itself
    /// is *not* drained — its consumer keeps its own batch. Returns how
    /// many events were backfilled.
    ///
    /// Caveat: the journal is bounded, so if [`Repository::journal_overflow`]
    /// is non-zero the pending buffer is missing dropped events — seed
    /// the sink from [`Repository::snapshot`] instead.
    pub fn subscribe_with_backfill(&self, sink: Arc<dyn EventSink>) -> usize {
        let mut sinks = self.sinks.write();
        let pending = self.journal.buf.lock().clone();
        for event in &pending {
            sink.accept(event);
        }
        sinks.push(sink);
        pending.len()
    }

    /// Take all pending change events from the built-in journal sink,
    /// oldest first. Each event is delivered exactly once; feed them to
    /// `SearchIndex::apply`, `WikiBx::sync_changed` (via
    /// [`crate::event::dirty_set`]) or a
    /// [`crate::storage::StorageBackend`].
    ///
    /// ## The drain-or-subscribe contract
    ///
    /// Every consumer must choose one of two modes. **Drain**: call this
    /// at a reasonable cadence; the journal buffers at most 65,536
    /// events by default (tune with
    /// [`Repository::set_journal_capacity`]) and *discards* newer events
    /// beyond that — so a forgotten drain costs bounded memory, not
    /// unbounded growth. Use [`Repository::drain_events_with_overflow`]
    /// to learn, per batch, whether anything was dropped since the last
    /// drain; a batch with a non-zero drop count is gapped, and the
    /// consumer must rebuild from [`Repository::snapshot`] instead of
    /// applying it. **Subscribe**: register an [`EventSink`] and ignore
    /// the journal entirely; push delivery never drops events
    /// (backpressure blocks the writer instead).
    ///
    /// When pairing a batch with a [`Repository::snapshot`] under
    /// concurrent mutation, **drain first, snapshot second**: a mutation
    /// landing between the two calls is then visible in the snapshot and
    /// its event simply arrives in the next batch. The reverse order can
    /// consume an event whose effect the snapshot does not yet show, and
    /// a consumer like `sync_changed` would render the touched entry from
    /// the stale snapshot and leave it stale until it is next touched.
    pub fn drain_events(&self) -> Vec<RepoEvent> {
        self.drain_events_with_overflow().0
    }

    /// [`Repository::drain_events`], plus how many events were discarded
    /// to overflow **since the previous drain** — i.e. whether this batch
    /// is gapped. The counter resets with each drain, so one historical
    /// overflow does not condemn every future batch: after a gapped
    /// batch, rebuild from [`Repository::snapshot`] once and resume
    /// normal incremental consumption.
    pub fn drain_events_with_overflow(&self) -> (Vec<RepoEvent>, u64) {
        let mut buf = self.journal.buf.lock();
        let events = std::mem::take(&mut *buf);
        // Swapped under the buf lock, which `accept` holds while counting
        // a drop — batch and counter stay consistent.
        let dropped = self.journal.overflow_since_drain.swap(0, Ordering::Relaxed);
        (events, dropped)
    }

    /// Lifetime total of events the bounded journal sink has *discarded*
    /// because nobody drained it in time (a diagnostic; for the per-batch
    /// gap signal use [`Repository::drain_events_with_overflow`]). Push
    /// sinks ([`Repository::subscribe`]) are unaffected by overflow.
    pub fn journal_overflow(&self) -> u64 {
        self.journal.overflow.load(Ordering::Relaxed)
    }

    /// Events currently buffered in the journal sink.
    pub fn journal_len(&self) -> usize {
        self.journal.buf.lock().len()
    }

    /// Change the journal sink's capacity (applies to future events; an
    /// already-over-full buffer is not truncated). A capacity of **0
    /// disables the journal entirely** — the right setting for push-only
    /// deployments that subscribe sinks and never drain: no per-mutation
    /// clone, no retained buffer, no overflow warning.
    pub fn set_journal_capacity(&self, capacity: usize) {
        self.journal.capacity.store(capacity, Ordering::Relaxed);
    }

    fn require_role(
        accounts: &BTreeMap<String, Principal>,
        who: &str,
        needs: Role,
        action: &str,
    ) -> Result<(), RepoError> {
        let p = accounts
            .get(who)
            .ok_or_else(|| RepoError::UnknownAccount(who.to_string()))?;
        if p.role.at_least(needs) {
            Ok(())
        } else {
            Err(RepoError::PermissionDenied {
                who: who.to_string(),
                action: action.to_string(),
                needs: needs.to_string(),
            })
        }
    }

    /// Self-registration: anyone may obtain a member account (the
    /// barrier-to-entry is registration itself).
    pub fn register(&self, principal: Principal) -> Result<(), RepoError> {
        let mut accounts = self.accounts.write();
        if accounts.contains_key(&principal.name) {
            return Err(RepoError::DuplicateAccount(principal.name));
        }
        // Self-registration grants Member regardless of the requested role;
        // higher roles come from curators via `grant_role`.
        let stored = Principal {
            role: Role::Member,
            ..principal
        };
        accounts.insert(stored.name.clone(), stored.clone());
        self.record(RepoEvent::Registered(Registered { principal: stored }));
        Ok(())
    }

    /// A curator grants a role to an existing account.
    pub fn grant_role(&self, curator: &str, account: &str, role: Role) -> Result<(), RepoError> {
        let mut accounts = self.accounts.write();
        Self::require_role(&accounts, curator, Role::Curator, "grant roles")?;
        let p = accounts
            .get_mut(account)
            .ok_or_else(|| RepoError::UnknownAccount(account.to_string()))?;
        p.role = role;
        self.record(RepoEvent::RoleGranted(RoleGranted {
            account: account.to_string(),
            role,
        }));
        Ok(())
    }

    /// Look up an account.
    pub fn account(&self, name: &str) -> Result<Principal, RepoError> {
        self.accounts
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| RepoError::UnknownAccount(name.to_string()))
    }

    /// Role-check `who`, then hand back the write guard for `id`'s shard
    /// *together with* the accounts read guard: the check and the
    /// mutation must be atomic, or a concurrent role downgrade could race
    /// an in-flight privileged action past its permission check. Follows
    /// the documented accounts → shard lock order.
    fn checked_shard(
        &self,
        who: &str,
        needs: Role,
        action: &str,
        id: &EntryId,
    ) -> Result<CheckedShard<'_>, RepoError> {
        let accounts = self.accounts.read();
        Self::require_role(&accounts, who, needs, action)?;
        let shard = self.shard_for(id).write();
        Ok((accounts, shard))
    }

    /// Contribute a new entry. The contributor must be registered; the
    /// entry must validate; the title must be fresh. The entry starts
    /// provisional at version 0.1 regardless of what the draft said.
    pub fn contribute(&self, who: &str, mut entry: ExampleEntry) -> Result<EntryId, RepoError> {
        // Hold the accounts guard until the mutation lands (see
        // `checked_shard` on why check-and-mutate must be atomic).
        let accounts = self.accounts.read();
        Self::require_role(&accounts, who, Role::Member, "contribute entries")?;
        let problems = entry.validate();
        if !problems.is_empty() {
            return Err(RepoError::InvalidEntry(problems));
        }
        let id = EntryId::from_title(&entry.title);
        let mut shard = self.shard_for(&id).write();
        if shard.records.contains_key(&id) {
            return Err(RepoError::DuplicateEntry(entry.title));
        }
        entry.version = Version::initial();
        entry.reviewers.clear();
        shard.records.insert(
            id.clone(),
            EntryRecord {
                status: EntryStatus::Provisional,
                history: vec![entry.clone()],
            },
        );
        self.record(RepoEvent::Contributed(EntryDelta {
            id: id.clone(),
            entry,
        }));
        Ok(id)
    }

    /// Revise an entry: publishes a new version (minor bump) and returns
    /// to provisional status. "We do not wish to have uncontrolled
    /// editing": only the entry's authors or a curator may revise.
    pub fn revise(
        &self,
        who: &str,
        id: &EntryId,
        mut entry: ExampleEntry,
    ) -> Result<Version, RepoError> {
        // Held until the mutation lands (see `checked_shard`).
        let accounts = self.accounts.read();
        Self::require_role(&accounts, who, Role::Member, "revise entries")?;
        let is_curator = accounts
            .get(who)
            .is_some_and(|p| p.role.at_least(Role::Curator));
        let mut shard = self.shard_for(id).write();
        let record = shard
            .records
            .get_mut(id)
            .ok_or_else(|| RepoError::UnknownEntry(id.to_string()))?;
        let latest = record.latest();
        if !is_curator && !latest.authors.iter().any(|a| a == who) {
            return Err(RepoError::PermissionDenied {
                who: who.to_string(),
                action: format!("revise `{id}`"),
                needs: "authorship or Curator".to_string(),
            });
        }
        let new_version = latest.version.next_revision();
        entry.version = new_version;
        // Comments accumulate across versions, and reviewers-of-record stay
        // attached for traceability; carry both forward.
        entry.comments = latest.comments.clone();
        entry.reviewers = latest.reviewers.clone();
        let problems = entry.validate();
        if !problems.is_empty() {
            return Err(RepoError::InvalidEntry(problems));
        }
        record.history.push(entry.clone());
        record.status = EntryStatus::Provisional;
        self.record(RepoEvent::Revised(EntryDelta {
            id: id.clone(),
            entry,
        }));
        Ok(new_version)
    }

    /// Any registered member may comment on an entry; comments attach to
    /// the latest version and guide the next one.
    pub fn comment(
        &self,
        who: &str,
        id: &EntryId,
        date: &str,
        text: &str,
    ) -> Result<(), RepoError> {
        let (_accounts, mut shard) = self.checked_shard(who, Role::Member, "comment", id)?;
        let record = shard
            .records
            .get_mut(id)
            .ok_or_else(|| RepoError::UnknownEntry(id.to_string()))?;
        let latest = record.history.last_mut().expect("non-empty history");
        let comment = Comment {
            author: who.to_string(),
            date: date.to_string(),
            text: text.to_string(),
        };
        latest.comments.push(comment.clone());
        self.record(RepoEvent::Commented(Commented {
            id: id.clone(),
            comment,
        }));
        Ok(())
    }

    /// Ask for review (any member; typically an author).
    pub fn request_review(&self, who: &str, id: &EntryId) -> Result<(), RepoError> {
        let (_accounts, mut shard) = self.checked_shard(who, Role::Member, "request review", id)?;
        let record = shard
            .records
            .get_mut(id)
            .ok_or_else(|| RepoError::UnknownEntry(id.to_string()))?;
        if !record.status.can_move_to(EntryStatus::UnderReview) {
            return Err(RepoError::PermissionDenied {
                who: who.to_string(),
                action: format!("request review of `{id}` ({} already)", record.status),
                needs: "provisional status".to_string(),
            });
        }
        record.status = EntryStatus::UnderReview;
        self.record(RepoEvent::ReviewRequested(EntryRef { id: id.clone() }));
        Ok(())
    }

    /// A reviewer approves the entry: the version is promoted (0.x → 1.0,
    /// 1.x → 2.0) and the reviewer's name is recorded "in the interest of
    /// traceability and credit".
    pub fn approve(&self, reviewer: &str, id: &EntryId) -> Result<Version, RepoError> {
        let (_accounts, mut shard) =
            self.checked_shard(reviewer, Role::Reviewer, "approve entries", id)?;
        let record = shard
            .records
            .get_mut(id)
            .ok_or_else(|| RepoError::UnknownEntry(id.to_string()))?;
        if !record.status.can_move_to(EntryStatus::Approved) {
            return Err(RepoError::PermissionDenied {
                who: reviewer.to_string(),
                action: format!("approve `{id}` ({})", record.status),
                needs: "under-review status".to_string(),
            });
        }
        let latest = record.latest();
        if latest.authors.iter().any(|a| a == reviewer) {
            return Err(RepoError::PermissionDenied {
                who: reviewer.to_string(),
                action: format!("approve own entry `{id}`"),
                needs: "an independent reviewer".to_string(),
            });
        }
        let mut approved = latest.clone();
        approved.version = latest.version.promoted();
        if !approved.reviewers.iter().any(|r| r == reviewer) {
            approved.reviewers.push(reviewer.to_string());
        }
        let version = approved.version;
        record.history.push(approved.clone());
        record.status = EntryStatus::Approved;
        self.record(RepoEvent::Approved(EntryDelta {
            id: id.clone(),
            entry: approved,
        }));
        Ok(version)
    }

    /// A reviewer sends the entry back for changes.
    pub fn request_changes(&self, reviewer: &str, id: &EntryId) -> Result<(), RepoError> {
        let (_accounts, mut shard) =
            self.checked_shard(reviewer, Role::Reviewer, "request changes", id)?;
        let record = shard
            .records
            .get_mut(id)
            .ok_or_else(|| RepoError::UnknownEntry(id.to_string()))?;
        if record.status != EntryStatus::UnderReview {
            return Err(RepoError::PermissionDenied {
                who: reviewer.to_string(),
                action: format!("request changes on `{id}` ({})", record.status),
                needs: "under-review status".to_string(),
            });
        }
        record.status = EntryStatus::Provisional;
        self.record(RepoEvent::ChangesRequested(EntryRef { id: id.clone() }));
        Ok(())
    }

    /// The latest version of an entry.
    pub fn latest(&self, id: &EntryId) -> Result<ExampleEntry, RepoError> {
        self.shard_for(id)
            .read()
            .records
            .get(id)
            .map(|r| r.latest().clone())
            .ok_or_else(|| RepoError::UnknownEntry(id.to_string()))
    }

    /// A specific version of an entry (old references must keep working).
    pub fn at_version(&self, id: &EntryId, version: Version) -> Result<ExampleEntry, RepoError> {
        let shard = self.shard_for(id).read();
        let record = shard
            .records
            .get(id)
            .ok_or_else(|| RepoError::UnknownEntry(id.to_string()))?;
        record
            .history
            .iter()
            .find(|e| e.version == version)
            .cloned()
            .ok_or_else(|| RepoError::UnknownVersion {
                entry: id.to_string(),
                version: version.to_string(),
            })
    }

    /// All versions an entry has had, oldest first.
    pub fn versions(&self, id: &EntryId) -> Result<Vec<Version>, RepoError> {
        self.shard_for(id)
            .read()
            .records
            .get(id)
            .map(|r| r.history.iter().map(|e| e.version).collect())
            .ok_or_else(|| RepoError::UnknownEntry(id.to_string()))
    }

    /// Current workflow status.
    pub fn status(&self, id: &EntryId) -> Result<EntryStatus, RepoError> {
        self.shard_for(id)
            .read()
            .records
            .get(id)
            .map(|r| r.status)
            .ok_or_else(|| RepoError::UnknownEntry(id.to_string()))
    }

    /// All entry ids, sorted.
    pub fn ids(&self) -> Vec<EntryId> {
        let mut ids: Vec<EntryId> = self
            .shards
            .iter()
            .flat_map(|s| s.read().records.keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().records.len()).sum()
    }

    /// True when the repository has no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().records.is_empty())
    }

    /// A full point-in-time copy. All shard read guards are taken before
    /// any map is copied, so the snapshot is consistent even under
    /// concurrent mutation.
    pub fn snapshot(&self) -> RepositorySnapshot {
        let accounts = self.accounts.read();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut records = BTreeMap::new();
        for guard in &guards {
            for (id, record) in &guard.records {
                records.insert(id.clone(), record.clone());
            }
        }
        RepositorySnapshot {
            name: self.name.clone(),
            records,
            accounts: accounts.clone(),
        }
    }

    /// Rebuild a repository from a snapshot (the restore direction of the
    /// persistence story). The journal starts empty: a restored repository
    /// owes downstream consumers only the deltas made *after* the restore.
    pub fn from_snapshot(snapshot: RepositorySnapshot) -> Repository {
        let shards = empty_shards(DEFAULT_SHARD_COUNT);
        for (id, record) in snapshot.records {
            let index = shard_index(&id, shards.len());
            shards[index].write().records.insert(id, record);
        }
        let journal = Arc::new(JournalSink::new(DEFAULT_JOURNAL_CAPACITY));
        Repository {
            name: snapshot.name,
            accounts: RwLock::new(snapshot.accounts),
            shards,
            journal: journal.clone(),
            sinks: RwLock::new(vec![journal]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn repo() -> Repository {
        let r = Repository::found("bx-examples", vec![Principal::curator("curator")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();
        r.grant_role("curator", "bob", Role::Reviewer).unwrap();
        r
    }

    #[test]
    fn contribute_and_fetch() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        assert_eq!(id.as_str(), "composers");
        assert_eq!(id.page_name(), "examples:composers");
        let e = r.latest(&id).unwrap();
        assert_eq!(e.version, Version::initial());
        assert_eq!(r.status(&id).unwrap(), EntryStatus::Provisional);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn unregistered_cannot_contribute() {
        let r = repo();
        let e = r.contribute("mallory", entry("X Y", "mallory"));
        assert!(matches!(e, Err(RepoError::UnknownAccount(_))));
    }

    #[test]
    fn duplicate_titles_rejected() {
        let r = repo();
        r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        let e = r.contribute("bob", entry("Composers", "bob"));
        assert!(
            matches!(e, Err(RepoError::DuplicateEntry(_))),
            "same slug must collide"
        );
    }

    #[test]
    fn invalid_entries_rejected_with_reasons() {
        let r = repo();
        let draft = ExampleEntry::builder("BAD").build_unchecked();
        match r.contribute("alice", draft) {
            Err(RepoError::InvalidEntry(problems)) => assert!(problems.len() >= 5),
            other => panic!("expected InvalidEntry, got {other:?}"),
        }
    }

    #[test]
    fn revision_bumps_version_and_keeps_history() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        let mut e2 = entry("COMPOSERS", "alice");
        e2.discussion = "Expanded discussion.".to_string();
        let v2 = r.revise("alice", &id, e2).unwrap();
        assert_eq!(v2, Version::new(0, 2));
        assert_eq!(
            r.versions(&id).unwrap(),
            vec![Version::new(0, 1), Version::new(0, 2)]
        );
        // The old version is still fetchable.
        let old = r.at_version(&id, Version::new(0, 1)).unwrap();
        assert_eq!(old.discussion, "Some discussion.");
    }

    #[test]
    fn only_authors_or_curators_revise() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        let e = r.revise("bob", &id, entry("COMPOSERS", "alice"));
        assert!(matches!(e, Err(RepoError::PermissionDenied { .. })));
        // Curators may.
        assert!(r
            .revise("curator", &id, entry("COMPOSERS", "alice"))
            .is_ok());
    }

    #[test]
    fn comments_accumulate_across_versions() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        r.comment("bob", &id, "2014-03-28", "What about name keys?")
            .unwrap();
        r.revise("alice", &id, entry("COMPOSERS", "alice")).unwrap();
        let latest = r.latest(&id).unwrap();
        assert_eq!(latest.comments.len(), 1);
        assert_eq!(latest.comments[0].author, "bob");
    }

    #[test]
    fn full_review_workflow() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        // Cannot approve before review requested.
        assert!(r.approve("bob", &id).is_err());
        r.request_review("alice", &id).unwrap();
        assert_eq!(r.status(&id).unwrap(), EntryStatus::UnderReview);
        let v = r.approve("bob", &id).unwrap();
        assert_eq!(v, Version::new(1, 0));
        assert_eq!(r.status(&id).unwrap(), EntryStatus::Approved);
        let e = r.latest(&id).unwrap();
        assert!(e.version.is_reviewed());
        assert_eq!(e.reviewers, vec!["bob".to_string()]);
        // Old provisional version still available.
        assert!(r.at_version(&id, Version::new(0, 1)).is_ok());
    }

    #[test]
    fn members_cannot_approve() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        r.request_review("alice", &id).unwrap();
        let e = r.approve("alice", &id);
        assert!(matches!(e, Err(RepoError::PermissionDenied { .. })));
    }

    #[test]
    fn authors_cannot_review_own_entries() {
        let r = repo();
        r.register(Principal::member("carol")).unwrap();
        r.grant_role("curator", "carol", Role::Reviewer).unwrap();
        let id = r.contribute("carol", entry("SELFIE", "carol")).unwrap();
        r.request_review("carol", &id).unwrap();
        let e = r.approve("carol", &id);
        assert!(matches!(e, Err(RepoError::PermissionDenied { .. })));
    }

    #[test]
    fn request_changes_returns_to_provisional() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        r.request_review("alice", &id).unwrap();
        r.request_changes("bob", &id).unwrap();
        assert_eq!(r.status(&id).unwrap(), EntryStatus::Provisional);
    }

    #[test]
    fn self_registration_is_member_only() {
        let r = repo();
        r.register(Principal::curator("sneaky")).unwrap();
        assert_eq!(r.account("sneaky").unwrap().role, Role::Member);
    }

    #[test]
    fn only_curators_grant_roles() {
        let r = repo();
        let e = r.grant_role("bob", "alice", Role::Reviewer);
        assert!(matches!(e, Err(RepoError::PermissionDenied { .. })));
    }

    #[test]
    fn snapshot_roundtrip() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        let snap = r.snapshot();
        let r2 = Repository::from_snapshot(snap.clone());
        assert_eq!(r2.latest(&id).unwrap(), r.latest(&id).unwrap());
        assert_eq!(r2.snapshot(), snap);
    }

    #[test]
    fn approval_after_re_review_promotes_major() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        r.request_review("alice", &id).unwrap();
        r.approve("bob", &id).unwrap(); // 1.0
        let mut e2 = entry("COMPOSERS", "alice");
        e2.discussion = "Post-1.0 revision.".to_string();
        let v = r.revise("alice", &id, e2).unwrap();
        assert_eq!(v, Version::new(1, 1));
        r.request_review("alice", &id).unwrap();
        let v = r.approve("bob", &id).unwrap();
        assert_eq!(v, Version::new(2, 0));
    }

    #[test]
    fn shard_count_does_not_change_behaviour() {
        for shards in [1, 3, 16, 64] {
            let r = Repository::with_shards("bx", vec![Principal::curator("curator")], shards);
            assert_eq!(r.shards.len(), shards);
            r.register(Principal::member("alice")).unwrap();
            let mut ids = Vec::new();
            for i in 0..20 {
                ids.push(
                    r.contribute("alice", entry(&format!("ENTRY {i}"), "alice"))
                        .unwrap(),
                );
            }
            assert_eq!(r.len(), 20);
            assert_eq!(r.ids(), {
                let mut sorted = ids.clone();
                sorted.sort();
                sorted
            });
            // The snapshot merges shards back into one ordered map.
            let snap = r.snapshot();
            assert_eq!(snap.records.len(), 20);
            assert!(snap.records.keys().zip(r.ids().iter()).all(|(a, b)| a == b));
        }
    }

    /// A sink that records everything it is pushed, for bus tests.
    struct Tape(Mutex<Vec<RepoEvent>>);

    impl EventSink for Tape {
        fn accept(&self, event: &RepoEvent) {
            self.0.lock().push(event.clone());
        }
    }

    #[test]
    fn subscribed_sinks_receive_events_at_commit_time() {
        let r = repo();
        let before = r.drain_events();
        assert!(before.len() >= 4, "founding + cast events were journaled");
        let tape = Arc::new(Tape(Mutex::new(Vec::new())));
        r.subscribe(tape.clone());

        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        r.comment("bob", &id, "2014-03-28", "pushed?").unwrap();
        // Failed mutations must push nothing.
        assert!(r.contribute("ghost", entry("X Y", "ghost")).is_err());

        let pushed = tape.0.lock().clone();
        let drained = r.drain_events();
        assert_eq!(pushed.len(), 2, "subscription is forward-only");
        assert_eq!(pushed, drained, "journal and push sink agree");
    }

    #[test]
    fn journal_is_bounded_and_counts_overflow() {
        let r = repo();
        r.drain_events();
        r.set_journal_capacity(3);
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        for i in 0..5 {
            r.comment("bob", &id, "2014-03-28", &format!("c{i}"))
                .unwrap();
        }
        assert_eq!(r.journal_len(), 3, "buffer capped");
        assert_eq!(r.journal_overflow(), 3, "1 contribute + 5 comments, 3 kept");
        // The repository itself lost nothing — only the journal tail.
        assert_eq!(r.latest(&id).unwrap().comments.len(), 5);
        // Push sinks are not subject to the journal cap.
        let tape = Arc::new(Tape(Mutex::new(Vec::new())));
        r.subscribe(tape.clone());
        r.comment("bob", &id, "2014-03-28", "late").unwrap();
        assert_eq!(tape.0.lock().len(), 1);
        assert_eq!(r.journal_overflow(), 4);
        // Draining surfaces the per-batch gap signal and resets it, while
        // the lifetime diagnostic keeps counting.
        let (batch, dropped) = r.drain_events_with_overflow();
        assert_eq!(batch.len(), 3);
        assert_eq!(dropped, 4, "this batch is gapped");
        assert_eq!(r.journal_len(), 0);
        assert_eq!(r.journal_overflow(), 4, "lifetime total unaffected");
        // The next batch is clean: one overflow does not condemn forever.
        r.comment("bob", &id, "2014-03-29", "clean").unwrap();
        let (batch, dropped) = r.drain_events_with_overflow();
        assert_eq!((batch.len(), dropped), (1, 0));
    }

    #[test]
    fn capacity_zero_disables_the_journal_for_push_only_use() {
        let r = repo();
        r.drain_events();
        r.set_journal_capacity(0);
        let tape = Arc::new(Tape(Mutex::new(Vec::new())));
        r.subscribe(tape.clone());
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        r.comment("bob", &id, "2014-03-28", "push-only").unwrap();
        // Push sinks get everything; the journal buffers nothing and a
        // disabled journal is not "overflowing" — no spurious warning
        // or gap accounting for a documented push-only deployment.
        assert_eq!(tape.0.lock().len(), 2);
        assert_eq!(r.journal_len(), 0);
        assert_eq!(r.journal_overflow(), 0);
        assert_eq!(r.drain_events_with_overflow(), (Vec::new(), 0));
    }

    #[test]
    fn subscribe_with_backfill_delivers_pending_history_exactly_once() {
        let r = repo();
        let id = r.contribute("alice", entry("COMPOSERS", "alice")).unwrap();
        let pending = r.journal_len();
        assert!(pending >= 5, "founding + cast + contribute are pending");

        let tape = Arc::new(Tape(Mutex::new(Vec::new())));
        let backfilled = r.subscribe_with_backfill(tape.clone());
        assert_eq!(backfilled, pending);
        // The journal was copied, not drained: its consumer still gets
        // the same batch.
        assert_eq!(r.journal_len(), pending);

        // Post-subscription events flow once; together with the backfill
        // the tape holds exactly the full journal history.
        r.comment("bob", &id, "2014-03-28", "after").unwrap();
        let drained = r.drain_events();
        assert_eq!(tape.0.lock().clone(), drained);
        // Replaying the tape reconstructs the live state — nothing was
        // missed or double-delivered.
        let replayed = crate::event::replay(RepositorySnapshot::empty(""), &tape.0.lock());
        assert_eq!(replayed, r.snapshot());
    }

    #[test]
    fn concurrent_contributions_land_on_distinct_shards() {
        let r = std::sync::Arc::new(Repository::found("bx", vec![Principal::curator("curator")]));
        r.register(Principal::member("alice")).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..16 {
                        r.contribute("alice", entry(&format!("T{t} N{i}"), "alice"))
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.len(), 8 * 16);
        // Replaying the concurrent journal reproduces the live state:
        // events on distinct entries commute, per-entry order is preserved.
        let events = r.drain_events();
        let replayed = crate::event::replay(RepositorySnapshot::empty(""), &events);
        assert_eq!(replayed, r.snapshot());
    }
}
