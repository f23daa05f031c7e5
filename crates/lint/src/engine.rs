//! The incremental engines.
//!
//! [`Linter`] is the synchronous core: a mirrored snapshot, a [`DepMap`]
//! and a [`DiagnosticsIndex`], advanced one event at a time on the
//! caller's thread. It is the reference implementation the equivalence
//! property pins (`Linter` over a script ≡ [`full_check`] over the final
//! state) and what the benches measure.
//!
//! [`LawChecker`] wraps the same logic as a live service: an
//! [`EventSink`] whose `accept` does only O(affected-set) bookkeeping
//! under the publisher's lock — fold the event into a mirrored snapshot,
//! consult the dependency map, add the affected entries to a dirty set —
//! while one [`bx_core::SerialTask`] on the caller's [`bx_core::Runtime`]
//! ([`LawChecker::on_runtime`]) drains the set off-thread, checking each
//! entry against the latest mirrored snapshot. Subscribe it to a
//! [`bx_core::Repository`] or a [`bx_core::Federation`] (a read
//! replica is a federation of one identity source) and query
//! diagnostics next to search.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bx_core::event::{apply_event, EventSink, RepoEvent};
use bx_core::repo::{EntryId, RepositorySnapshot};
use bx_core::runtime::{HealthReport, Runtime, RuntimeHealth, SerialTask};

use crate::catalog::CheckCatalog;
use crate::check::{check_entry, full_check};
use crate::deps::DepMap;
use crate::diagnostics::{Diagnostic, DiagnosticsIndex};

/// Called with `(entry, its new findings)` every time the engine folds a
/// fresh check result in — the push protocol for diagnostics deltas. A
/// check that panics goes to the runtime's health channel instead
/// ([`HealthReport::CheckPanicked`]).
pub type DeltaSink = Arc<dyn Fn(&EntryId, &[Diagnostic]) + Send + Sync>;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The synchronous incremental linter; see the module docs.
#[derive(Debug, Clone)]
pub struct Linter {
    snapshot: RepositorySnapshot,
    deps: DepMap,
    index: DiagnosticsIndex,
    catalog: Arc<CheckCatalog>,
}

impl Linter {
    /// Build over `snapshot` with a cold full check.
    pub fn new(snapshot: RepositorySnapshot, catalog: Arc<CheckCatalog>) -> Linter {
        let deps = DepMap::build(&snapshot);
        let index = full_check(&snapshot, &catalog);
        Linter {
            snapshot,
            deps,
            index,
            catalog,
        }
    }

    /// Fold one event in and re-check exactly the affected entries.
    pub fn apply(&mut self, event: &RepoEvent) {
        // Reverse dependencies are consulted both before and after the
        // dependency edges move, so an entry that *stops* being affected
        // still gets its final re-check.
        let mut affected = self.deps.affected(event);
        apply_event(&mut self.snapshot, event);
        if let Some(id) = event.touched() {
            self.deps.update_entry(id, self.snapshot.records.get(id));
            affected.extend(self.deps.affected(event));
        }
        for id in affected {
            let diagnostics = self
                .snapshot
                .records
                .get(&id)
                .map(|record| check_entry(&self.snapshot, &id, record, &self.catalog))
                .unwrap_or_default();
            self.index.set_entry(&id, diagnostics);
        }
    }

    /// Adopt `base` wholesale (a replica re-based) and re-check
    /// everything.
    pub fn rebase(&mut self, base: &RepositorySnapshot) {
        *self = Linter::new(base.clone(), self.catalog.clone());
    }

    /// The live diagnostics.
    pub fn diagnostics(&self) -> &DiagnosticsIndex {
        &self.index
    }

    /// The mirrored snapshot the diagnostics are about.
    pub fn snapshot(&self) -> &RepositorySnapshot {
        &self.snapshot
    }
}

/// Most entries one run of the checker's task checks before it yields
/// its worker to sibling tenants (it re-notifies itself while ids
/// remain).
const CHECKS_PER_RUN: usize = 64;

/// The mirrored publisher state the accept path maintains. The snapshot
/// lives in an `Arc` so a check runs against an O(1) clone taken when
/// its entry leaves `dirty`, instead of holding this lock for the check.
struct EngineState {
    snapshot: Arc<RepositorySnapshot>,
    deps: DepMap,
    /// Entries whose findings may be stale. An entry dirtied again
    /// before its check is checked once, against the state at that time.
    dirty: BTreeSet<EntryId>,
}

struct Inner {
    state: Mutex<EngineState>,
    index: Mutex<DiagnosticsIndex>,
    /// Checks completed (panicking checks don't count).
    checks_run: AtomicU64,
    catalog: Arc<CheckCatalog>,
    delta_sink: Mutex<Option<DeltaSink>>,
    /// A check that panics publishes [`HealthReport::CheckPanicked`]
    /// here under `component`.
    health: Arc<RuntimeHealth>,
    component: String,
}

/// Publishes [`HealthReport::CheckPanicked`] for its entry when a
/// panicking check unwinds through it; a check that returns drops it
/// silently.
struct PanicGuard<'a>(&'a Inner, &'a EntryId);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let entry = self.1.to_string();
            let report = HealthReport::CheckPanicked { entry };
            self.0.health.report(&self.0.component, report);
        }
    }
}

impl Inner {
    /// One run of the checker's task: check up to [`CHECKS_PER_RUN`]
    /// dirty entries. A check that panics is published as it unwinds.
    fn run(&self, task: &SerialTask) {
        for _ in 0..CHECKS_PER_RUN {
            let (id, snapshot, more) = {
                let mut state = lock(&self.state);
                let Some(id) = state.dirty.pop_first() else {
                    return;
                };
                (id, state.snapshot.clone(), !state.dirty.is_empty())
            };
            // Re-notified before the check: should it panic, only this
            // entry is lost and the next run drains the rest.
            if more {
                task.notify();
            }
            let guard = PanicGuard(self, &id);
            let diagnostics = snapshot
                .records
                .get(&id)
                .map(|record| check_entry(&snapshot, &id, record, &self.catalog))
                .unwrap_or_default();
            drop(guard);
            lock(&self.index).set_entry(&id, diagnostics.clone());
            self.checks_run.fetch_add(1, Ordering::Relaxed);
            let sink = lock(&self.delta_sink).clone();
            if let Some(sink) = sink {
                sink(&id, &diagnostics);
            }
        }
    }
}

/// The live law-checking service; see the module docs. Implements
/// [`EventSink`], so it plugs into `Repository::subscribe(_with_backfill)`,
/// and `Federation::subscribe` unchanged; the `rebased` notification
/// (a source's checkpoint crossing, initial backfill) triggers a full
/// re-check.
pub struct LawChecker {
    inner: Arc<Inner>,
    task: SerialTask,
}

impl std::fmt::Debug for LawChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LawChecker")
            .field("dirty", &lock(&self.inner.state).dirty.len())
            .finish()
    }
}

impl LawChecker {
    /// A checker over an initially empty state that runs its checks as a
    /// serial task on `runtime`. Its counters stay on the checker
    /// ([`LawChecker::checks_run`]); the runtime's health channel hears
    /// from it only when a check panics, as
    /// [`HealthReport::CheckPanicked`] under `component`.
    pub fn on_runtime(
        catalog: Arc<CheckCatalog>,
        runtime: &Arc<Runtime>,
        component: &str,
    ) -> LawChecker {
        let inner = Arc::new(Inner {
            state: Mutex::new(EngineState {
                snapshot: Arc::new(RepositorySnapshot::empty("")),
                deps: DepMap::default(),
                dirty: BTreeSet::new(),
            }),
            index: Mutex::new(DiagnosticsIndex::default()),
            checks_run: AtomicU64::new(0),
            catalog,
            delta_sink: Mutex::new(None),
            health: Arc::clone(runtime.health()),
            component: component.to_string(),
        });
        let run_inner = Arc::clone(&inner);
        let task = runtime.serial_task(move |task| run_inner.run(task));
        LawChecker { inner, task }
    }

    /// Push `(entry, findings)` deltas to `sink` as checks fold in (the
    /// LSP-style notification hook). Called on worker threads, outside
    /// every engine lock; replaces any previous sink.
    pub fn set_delta_sink(&self, sink: DeltaSink) {
        *lock(&self.inner.delta_sink) = Some(sink);
    }

    /// Checks completed since construction (a check that panicked
    /// doesn't count — the pool catches it and the worker survives).
    pub fn checks_run(&self) -> u64 {
        self.inner.checks_run.load(Ordering::Relaxed)
    }

    /// Block until every dirty entry has been checked (or its check has
    /// panicked) and folded into the index.
    pub fn wait_idle(&self) {
        self.task.wait_idle();
    }

    /// A point-in-time copy of the live diagnostics. Call
    /// [`LawChecker::wait_idle`] first for a quiescent view.
    pub fn diagnostics(&self) -> DiagnosticsIndex {
        lock(&self.inner.index).clone()
    }

    /// The current findings for one entry.
    pub fn diagnostics_of(&self, id: &EntryId) -> Vec<Diagnostic> {
        lock(&self.inner.index).diagnostics_of(id).to_vec()
    }
}

impl EventSink for LawChecker {
    fn accept(&self, event: &RepoEvent) {
        // Publishers deliver under their commit lock: do only the
        // bookkeeping here and leave the checking to the task.
        {
            let mut state = lock(&self.inner.state);
            let mut affected = state.deps.affected(event);
            apply_event(Arc::make_mut(&mut state.snapshot), event);
            if let Some(id) = event.touched() {
                let record = state.snapshot.records.get(id).cloned();
                state.deps.update_entry(id, record.as_ref());
                affected.extend(state.deps.affected(event));
            }
            if affected.is_empty() {
                return;
            }
            state.dirty.append(&mut affected);
        }
        self.task.notify();
    }

    fn rebased(&self, base: &RepositorySnapshot) {
        {
            let mut state = lock(&self.inner.state);
            state.snapshot = Arc::new(base.clone());
            state.deps = DepMap::build(base);
            state.dirty.extend(base.records.keys().cloned());
            // Entries the new base no longer has must have their stale
            // findings cleared; a check that finds no record removes them.
            state
                .dirty
                .extend(lock(&self.inner.index).entries().cloned());
        }
        self.task.notify();
    }
}

impl Drop for LawChecker {
    fn drop(&mut self) {
        // A run already queued finds nothing left to check, so the
        // runtime gets its worker back promptly.
        lock(&self.inner.state).dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_core::principal::{Principal, Role};
    use bx_core::repo::Repository;
    use bx_core::template::{ExampleEntry, ExampleType};
    use std::sync::Mutex as StdMutex;

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

    fn catalog() -> Arc<CheckCatalog> {
        Arc::new(CheckCatalog::new())
    }

    #[test]
    fn linter_tracks_a_live_repository() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut linter = Linter::new(r.snapshot(), catalog());
        assert!(linter.diagnostics().is_clean());

        let mut e = entry("COMPOSERS");
        e.references = vec![bx_core::template::Reference {
            citation: "entry:ghost".to_string(),
            doi: None,
        }];
        r.contribute("alice", e).unwrap();
        for event in r.drain_events() {
            linter.apply(&event);
        }
        assert_eq!(linter.diagnostics().error_count(), 1, "dangling reference");
        assert_eq!(
            linter.diagnostics(),
            &full_check(&r.snapshot(), &CheckCatalog::new()),
            "incremental ≡ full"
        );

        // The ghost target appearing clears the referencer's error
        // without the referencer itself being touched.
        r.contribute("alice", entry("GHOST")).unwrap();
        for event in r.drain_events() {
            linter.apply(&event);
        }
        assert!(linter.diagnostics().is_clean());
        assert_eq!(
            linter.diagnostics(),
            &full_check(&r.snapshot(), &CheckCatalog::new())
        );
    }

    #[test]
    fn law_checker_subscribes_checks_and_pushes_deltas() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();

        let checker = Arc::new(LawChecker::on_runtime(catalog(), &Runtime::new(2), "lint"));
        let deltas: Arc<StdMutex<Vec<EntryId>>> = Arc::default();
        let seen = deltas.clone();
        checker.set_delta_sink(Arc::new(move |id, _| {
            seen.lock().unwrap().push(id.clone());
        }));
        r.subscribe_with_backfill(checker.clone());

        // A reviewed entry whose reviewer lacks the role: inject the
        // approved state via the normal workflow.
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        r.request_review("alice", &id).unwrap();
        checker.wait_idle();
        // bob is only a Member; grant the role through the curator and
        // watch the diagnostics converge.
        r.grant_role("c", "bob", Role::Reviewer).unwrap();
        r.approve("bob", &id).unwrap();
        checker.wait_idle();
        assert!(
            checker.diagnostics().is_clean(),
            "workflow-produced states lint clean: {}",
            checker.diagnostics().report()
        );
        assert_eq!(
            checker.diagnostics(),
            full_check(&r.snapshot(), &CheckCatalog::new())
        );
        assert!(
            deltas.lock().unwrap().iter().any(|d| d == &id),
            "delta sink saw the entry"
        );
    }

    #[test]
    fn law_checker_rebases_and_clears_stale_entries() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut bad = ExampleEntry::builder("BROKEN")
            .of_type(ExampleType::Precise)
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .discussion("D.")
            .author("alice")
            .build_unchecked();
        bad.overview = String::new();

        let checker = LawChecker::on_runtime(catalog(), &Runtime::new(2), "lint");
        let mut tampered = r.snapshot();
        tampered.records.insert(
            EntryId::from_title("BROKEN"),
            bx_core::repo::EntryRecord {
                status: bx_core::curation::EntryStatus::Provisional,
                history: vec![bad],
            },
        );
        checker.rebased(&tampered);
        checker.wait_idle();
        assert_eq!(checker.diagnostics().error_count(), 1);

        // Re-basing onto a state without the broken entry clears it.
        checker.rebased(&r.snapshot());
        checker.wait_idle();
        assert!(checker.diagnostics().is_clean());
        assert_eq!(checker.diagnostics(), DiagnosticsIndex::default());
    }
}
