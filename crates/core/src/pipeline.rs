//! The background durability pipeline: a bounded queue of committed
//! [`RepoEvent`]s and one commit that hands a group of them to any
//! [`StorageBackend`] and makes it durable.
//!
//! [`BackgroundWriter`] is an [`EventSink`]: subscribe it to a
//! [`crate::repo::Repository`] and persistence leaves the mutating
//! call — `contribute`/`revise`/… return as soon as the event is
//! *enqueued*. The thread that needs events durable commits them: a
//! [`BackgroundWriter::flush`] caller that finds no commit in flight
//! runs one on its own thread, and so does `shutdown`. The writer's
//! [`crate::runtime::SerialTask`] on a caller's [`Runtime`]
//! ([`BackgroundWriter::on_runtime`]) commits only what no flush took,
//! for producers that never flush; many writers share one bounded pool
//! as serialized tasks, never a thread each. Its counters live on
//! [`BackgroundWriter::stats`]; the runtime's health channel hears from
//! a writer only when it fails ([`HealthReport::WriterFailed`]) or
//! repaired a torn tail at open. Four properties define the pipeline:
//!
//! * **Bounded, with backpressure.** The queue holds at most
//!   [`PipelineConfig::channel_capacity`] events. When it is full,
//!   `accept` blocks the mutating caller until a commit takes a group —
//!   durability lag is bounded by the queue, never unbounded memory.
//!   Every such stall is counted ([`PipelineStats::backpressure_waits`]).
//! * **Explicit flush.** [`BackgroundWriter::flush`] blocks until every
//!   event enqueued before the call is durably recorded (or the writer
//!   has failed), surfacing any backend error. Write errors are sticky:
//!   after one, subsequent events are discarded (counted in
//!   [`PipelineStats::dropped`]) rather than blocking writers forever,
//!   and every later `flush`/`shutdown` keeps returning the error. A
//!   backend that panics fails the writer the same way.
//! * **Group commit.** The backend's `record` only stages, and
//!   `StorageBackend::flush_durable` is its one fsync point. A commit
//!   calls both for up to [`PipelineConfig::max_group_events`] queued
//!   events, and at most one commit runs per writer, so events that
//!   queue while one runs form the next group: **one** fsync then
//!   acknowledges every producer that queued meanwhile
//!   ([`PipelineStats::durable`] over [`PipelineStats::fsyncs`] is the
//!   amortisation). Events that no flush takes are committed by the
//!   task within [`PipelineConfig::group_commit_window`] — at once with
//!   the default zero window.
//! * **Drop-shutdown.** Dropping the writer (or calling
//!   [`BackgroundWriter::shutdown`]) commits everything still queued on
//!   the calling thread and waits out any task pass, so a scope exit
//!   cannot lose acknowledged events.
//!
//! The backend is moved into the writer. For the scaling backend
//! ([`crate::storage::EventLogBackend`]), wrap it in
//! [`crate::storage::AutoCompactingEventLog`] first and the pipeline
//! checkpoints/prunes as it writes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::error::RepoError;
use crate::event::{EventSink, RepoEvent};
use crate::runtime::{HealthReport, Runtime, RuntimeHealth, SerialTask};
use crate::storage::StorageBackend;

/// Default bound on the writer's input queue, in events.
pub(crate) const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// Default cap on how many events one commit may cover (bounds both ack
/// latency and the clean suffix a crash inside the commit can lose).
pub(crate) const DEFAULT_MAX_GROUP_EVENTS: usize = 4096;

/// Tuning knobs for a [`BackgroundWriter`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Queue bound: how many events may sit between the producers and
    /// the backend before `accept` applies backpressure.
    pub channel_capacity: usize,
    /// How long the writer task leaves queued events for a `flush`
    /// caller to commit before it commits them itself: an upper bound on
    /// the durability lag of events nobody flushes (an earlier wake-up
    /// may commit them sooner). Zero (the default) wakes the task at
    /// once. A full group wakes it at once whatever the window.
    pub group_commit_window: Duration,
    /// Most events one commit may cover (≥ 1): bounds ack latency, the
    /// batch handed to one `record` call and the clean suffix a crash
    /// inside the commit can lose.
    pub max_group_events: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
            group_commit_window: Duration::ZERO,
            max_group_events: DEFAULT_MAX_GROUP_EVENTS,
        }
    }
}

impl PipelineConfig {
    /// The default configuration with a group-commit window of `window`.
    pub fn group_commit(window: Duration) -> PipelineConfig {
        PipelineConfig {
            group_commit_window: window,
            ..PipelineConfig::default()
        }
    }
}

/// Backpressure and progress accounting, readable at any time via
/// [`BackgroundWriter::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Events accepted into the queue.
    pub enqueued: u64,
    /// Events durably recorded by the backend (past its fsync point).
    pub durable: u64,
    /// Events discarded because the writer had already failed.
    pub dropped: u64,
    /// How many times an `accept` blocked on a full queue.
    pub backpressure_waits: u64,
    /// Durability commit points the writer has issued, one per commit;
    /// `durable / fsyncs` is the realised amortisation factor. (Real
    /// `sync_all` calls on file-backed backends; commit points on memory
    /// ones.)
    pub fsyncs: u64,
}

/// Everything the producers, the flush callers and the writer task
/// share.
struct Shared {
    state: Mutex<State>,
    /// Locked only by the one commit in flight (`State::committing`);
    /// poisoned only by a backend panic, after which nothing is queued.
    backend: Mutex<Box<dyn StorageBackend + Send>>,
    /// Signalled when queue space frees up.
    not_full: Condvar,
    /// Signalled when a commit ends or an event is dropped.
    progress: Condvar,
    capacity: usize,
    /// How long `accept` lets the task wait before it commits.
    window: Duration,
    group_max: usize,
    /// A failure publishes [`HealthReport::WriterFailed`] here under
    /// `component`.
    health: Arc<RuntimeHealth>,
    component: String,
}

struct State {
    queue: VecDeque<RepoEvent>,
    shutdown: bool,
    /// A commit is in flight: its group has left `queue` and is not yet
    /// counted in `stats`.
    committing: bool,
    /// First backend error, stringified; sticky once set.
    error: Option<String>,
    stats: PipelineStats,
}

/// The background durability pipeline's front end; see the module docs.
pub struct BackgroundWriter {
    shared: Arc<Shared>,
    task: SerialTask,
}

impl std::fmt::Debug for BackgroundWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BackgroundWriter")
            .field("stats", &stats)
            .finish()
    }
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a>(condvar: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    condvar.wait(state).unwrap_or_else(|e| e.into_inner())
}

/// The sticky error, if any, as a flush or shutdown result.
fn sticky(state: &State) -> Result<(), RepoError> {
    match &state.error {
        Some(e) => Err(RepoError::Persist(e.clone())),
        None => Ok(()),
    }
}

impl BackgroundWriter {
    /// Place a writer around `backend` on `runtime`: the writer becomes
    /// one serialized task among the runtime's tenants instead of owning
    /// a thread, and a failure publishes [`HealthReport::WriterFailed`]
    /// under `component` on the runtime's health channel. The writer
    /// keeps the runtime's pool and health channel alive, so a caller
    /// may drop its own runtime handle.
    pub fn on_runtime<B: StorageBackend + Send + 'static>(
        backend: B,
        config: PipelineConfig,
        runtime: &Arc<Runtime>,
        component: &str,
    ) -> BackgroundWriter {
        // A backend that repaired a torn tail when it opened says so on
        // the health channel — the repair predates this writer, but this
        // is the first observer that can publish it.
        if let Some(repair) = backend.tail_repaired() {
            runtime.health().report(
                component,
                HealthReport::TailRepaired {
                    file: repair.file,
                    bytes_dropped: repair.bytes_dropped,
                },
            );
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
                committing: false,
                error: None,
                stats: PipelineStats::default(),
            }),
            backend: Mutex::new(Box::new(backend)),
            not_full: Condvar::new(),
            progress: Condvar::new(),
            capacity: config.channel_capacity.max(1),
            window: config.group_commit_window,
            group_max: config.max_group_events.max(1),
            health: Arc::clone(runtime.health()),
            component: component.to_string(),
        });
        let drive_shared = Arc::clone(&shared);
        let task = runtime.serial_task(move |task| drive(task, &drive_shared));
        BackgroundWriter { shared, task }
    }

    /// Enqueue a batch directly — the backfill path for events that
    /// happened *before* the writer was subscribed (e.g. the output of
    /// [`crate::repo::Repository::drain_events`]). Same backpressure and
    /// error semantics as sink delivery.
    pub fn enqueue(&self, events: &[RepoEvent]) {
        for event in events {
            self.accept(event);
        }
    }

    /// Block until every event enqueued before this call is durably
    /// recorded, then report the writer's health. The caller leads: with
    /// no commit in flight it commits the queue on its own thread, group
    /// by group, and otherwise waits for the one in flight to end, so
    /// acknowledgement never waits for the window or for a pool worker.
    /// Any discarded event fails the flush: a backend error and a
    /// post-shutdown delivery both plant a sticky error, so `Ok(())`
    /// really means "everything accepted so far is on the backend".
    pub fn flush(&self) -> Result<(), RepoError> {
        let mut state = lock(&self.shared);
        let target = state.stats.enqueued;
        // `durable + dropped` only grows, so no wake-up can be lost.
        while state.error.is_none() && state.stats.durable + state.stats.dropped < target {
            state = if state.committing {
                wait(&self.shared.progress, state)
            } else {
                commit(&self.shared, state)
            };
        }
        // The task skips its pass while another thread commits; events
        // queued behind this flush's target are handed back to it.
        if !state.committing && !state.queue.is_empty() {
            self.task.notify();
        }
        sticky(&state)
    }

    /// Commit everything still queued on the calling thread, then wait
    /// out any task pass, returning the sticky error, if any. Idempotent;
    /// also run (result ignored) by `Drop`.
    pub fn shutdown(&self) -> Result<(), RepoError> {
        let mut state = lock(&self.shared);
        state.shutdown = true;
        self.shared.not_full.notify_all();
        while state.committing || !state.queue.is_empty() {
            state = if state.committing {
                wait(&self.shared.progress, state)
            } else {
                commit(&self.shared, state)
            };
        }
        let result = sticky(&state);
        drop(state);
        // A pass in flight may still be publishing a failure report on
        // the runtime's channel.
        self.task.wait_idle();
        result
    }

    /// Current progress/backpressure counters.
    pub fn stats(&self) -> PipelineStats {
        lock(&self.shared).stats
    }
}

impl EventSink for BackgroundWriter {
    fn accept(&self, event: &RepoEvent) {
        let due = {
            let mut state = lock(&self.shared);
            // One stall = one count, however many condvar wake-ups it
            // takes (notify_all wakes every blocked producer; most loop
            // again).
            let full = |state: &State| {
                state.queue.len() >= self.shared.capacity
                    && state.error.is_none()
                    && !state.shutdown
            };
            if full(&state) {
                state.stats.backpressure_waits += 1;
            }
            while full(&state) {
                state = wait(&self.shared.not_full, state);
            }
            state.stats.enqueued += 1;
            if state.error.is_some() || state.shutdown {
                // A dead writer must not block its producers forever; the
                // loss is counted, and flush()/shutdown() must report it —
                // so a drop after a *clean* shutdown plants the sticky
                // error too (a crashed writer already has one).
                state.stats.dropped += 1;
                if state.error.is_none() {
                    state.error = Some("event discarded: writer was already shut down".to_string());
                }
                self.shared.progress.notify_all();
                return;
            }
            state.queue.push_back(event.clone());
            state.queue.len() >= self.shared.group_max.min(self.shared.capacity)
        };
        if due || self.shared.window.is_zero() {
            self.task.notify();
        } else {
            self.task.notify_in(self.shared.window);
        }
    }
}

impl Drop for BackgroundWriter {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One pass of the writer task: commit one group of what no flush took,
/// and re-notify itself while events remain, so sibling tenants on a
/// shared runtime are never starved. Returns at once if a commit is in
/// flight (its owner hands leftovers back), the error is sticky or the
/// queue is empty. Never blocks waiting for work: producers re-notify
/// it, at once or after the window.
fn drive(task: &SerialTask, shared: &Shared) {
    let state = lock(shared);
    if state.committing || state.error.is_some() || state.queue.is_empty() {
        return;
    }
    if !commit(shared, state).queue.is_empty() {
        task.notify();
    }
}

/// The one commit, and the only caller of `record` and `flush_durable`:
/// take up to `group_max` queued events, stage them and make them
/// durable with one fsync, then count them and wake every waiter. The
/// caller holds the state lock with no commit in flight; the lock is
/// released while the backend works, so producers keep queueing the
/// next group.
fn commit<'a>(shared: &'a Shared, mut state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    let n = state.queue.len().min(shared.group_max);
    let group: Vec<RepoEvent> = state.queue.drain(..n).collect();
    state.committing = true;
    shared.not_full.notify_all();
    drop(state);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut backend = shared.backend.lock().unwrap_or_else(|e| e.into_inner());
        backend.record(&group)?;
        backend.flush_durable()
    }));
    let mut state = lock(shared);
    state.committing = false;
    let error = match &outcome {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e.to_string()),
        Err(_) => Some("storage backend panicked".to_string()),
    };
    let failed = match error {
        None => {
            state.stats.durable += n as u64;
            state.stats.fsyncs += 1;
            None
        }
        // A backend error or panic loses the group and everything still
        // queued, counted (a durable *prefix* of the group may be on
        // disk; recovery reconciles via the primary's journal). The
        // first error turns sticky and is published once.
        Some(error) => {
            state.stats.dropped += (n + state.queue.len()) as u64;
            state.queue.clear();
            shared.not_full.notify_all();
            let first = state.error.is_none().then(|| error.clone());
            state.error.get_or_insert(error);
            first
        }
    };
    shared.progress.notify_all();
    if let Some(error) = failed {
        // Outside the lock: an observer may call back into the writer.
        drop(state);
        let report = HealthReport::WriterFailed { error };
        shared.health.report(&shared.component, report);
        state = lock(shared);
    }
    if let Err(panic) = outcome {
        // The panic goes on to the caller, leaving the lock unpoisoned.
        drop(state);
        resume_unwind(panic);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    use crate::principal::Principal;
    use crate::repo::Repository;
    use crate::storage::MemoryBackend;
    use crate::template::{ExampleEntry, ExampleType};

    /// A backend whose state outlives the writer thread, so tests can
    /// inspect what was durably recorded.
    #[derive(Clone, Default)]
    struct SharedMemory(Arc<Mutex<MemoryBackend>>);

    impl StorageBackend for SharedMemory {
        fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
            self.0.lock().unwrap().record(events)
        }
        fn checkpoint(
            &mut self,
            snapshot: &crate::repo::RepositorySnapshot,
        ) -> Result<(), RepoError> {
            self.0.lock().unwrap().checkpoint(snapshot)
        }
        fn restore(&self) -> Result<crate::repo::RepositorySnapshot, RepoError> {
            self.0.lock().unwrap().restore()
        }
    }

    /// A backend that fails every write, for sticky-error tests.
    struct BrokenBackend;

    impl StorageBackend for BrokenBackend {
        fn record(&mut self, _events: &[RepoEvent]) -> Result<(), RepoError> {
            Err(RepoError::Persist("disk on fire".to_string()))
        }
        fn checkpoint(
            &mut self,
            _snapshot: &crate::repo::RepositorySnapshot,
        ) -> Result<(), RepoError> {
            Err(RepoError::Persist("disk on fire".to_string()))
        }
        fn restore(&self) -> Result<crate::repo::RepositorySnapshot, RepoError> {
            Err(RepoError::Persist("disk on fire".to_string()))
        }
    }

    /// Events accepted but not yet durably recorded.
    fn lag(writer: &BackgroundWriter) -> u64 {
        let stats = writer.stats();
        stats.enqueued - stats.durable - stats.dropped
    }

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
    fn subscribed_writer_persists_the_live_state() {
        let storage = SharedMemory::default();
        let writer = Arc::new(BackgroundWriter::on_runtime(
            storage.clone(),
            PipelineConfig::default(),
            &Runtime::new(1),
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        // Backfill the founding event, then go push-mode.
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        repo.comment("alice", &id, "2014-03-28", "bg").unwrap();

        writer.flush().unwrap();
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        let stats = writer.stats();
        assert_eq!(stats.enqueued, 4);
        assert_eq!(stats.durable, 4);
        assert_eq!(stats.dropped, 0);
        // A zero window: one commit point per batch, never more.
        assert!(stats.fsyncs >= 1);
        assert!(stats.fsyncs <= stats.durable);
        assert_eq!(lag(&writer), 0);
        writer.shutdown().unwrap();
    }

    #[test]
    fn drop_drains_the_queue() {
        let storage = SharedMemory::default();
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        repo.register(Principal::member("alice")).unwrap();
        repo.contribute("alice", entry("COMPOSERS")).unwrap();
        {
            let writer = BackgroundWriter::on_runtime(
                storage.clone(),
                PipelineConfig {
                    channel_capacity: 2, // force backpressure on the way in
                    max_group_events: 1,
                    ..PipelineConfig::default()
                },
                &Runtime::new(1),
                "writer",
            );
            writer.enqueue(&repo.drain_events());
            // No flush: Drop must drain.
        }
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
    }

    #[test]
    fn backend_errors_are_sticky_and_do_not_block_producers() {
        let writer = Arc::new(BackgroundWriter::on_runtime(
            BrokenBackend,
            PipelineConfig {
                channel_capacity: 2,
                max_group_events: 8,
                ..PipelineConfig::default()
            },
            &Runtime::new(1),
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        // Far more events than the channel holds: if the dead writer kept
        // blocking, this loop would hang.
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        for i in 0..16 {
            repo.comment("alice", &id, "2014-03-28", &format!("c{i}"))
                .unwrap();
        }
        let err = writer.flush().unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("disk on fire")));
        let stats = writer.stats();
        assert_eq!(stats.durable, 0);
        assert!(stats.dropped > 0);
        assert_eq!(stats.enqueued, stats.dropped);
        assert!(writer.shutdown().is_err(), "the error stays sticky");
    }

    #[test]
    fn events_after_shutdown_fail_the_next_flush() {
        let storage = SharedMemory::default();
        let writer = Arc::new(BackgroundWriter::on_runtime(
            storage.clone(),
            PipelineConfig::default(),
            &Runtime::new(1),
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        writer.shutdown().unwrap();
        // The repository still holds the sink; this event can no longer
        // reach the backend and flush must say so rather than lie Ok.
        repo.register(Principal::member("late")).unwrap();
        let err = writer.flush().unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("shut down")));
        assert_eq!(writer.stats().dropped, 1);
    }

    #[test]
    fn flush_then_more_events_then_flush_again() {
        let storage = SharedMemory::default();
        let writer = Arc::new(BackgroundWriter::on_runtime(
            storage.clone(),
            PipelineConfig::default(),
            &Runtime::new(1),
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        writer.flush().unwrap();
        let mid = storage.0.lock().unwrap().restore().unwrap();
        assert_eq!(mid, repo.snapshot());
        repo.contribute("alice", entry("DATES")).unwrap();
        writer.flush().unwrap();
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
    }

    #[test]
    fn group_commit_coalesces_commit_points() {
        let storage = SharedMemory::default();
        let writer = Arc::new(BackgroundWriter::on_runtime(
            storage.clone(),
            PipelineConfig::group_commit(Duration::from_millis(5)),
            &Runtime::new(1),
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        for i in 0..20 {
            repo.comment("alice", &id, "2014-03-28", &format!("g{i}"))
                .unwrap();
        }
        writer.flush().unwrap();
        let stats = writer.stats();
        assert_eq!(stats.durable, stats.enqueued);
        assert!(stats.fsyncs >= 1);
        assert!(
            stats.fsyncs < stats.durable,
            "windows amortise: {} fsyncs for {} events",
            stats.fsyncs,
            stats.durable
        );
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        writer.shutdown().unwrap();
    }

    #[test]
    fn flush_closes_an_open_window_early() {
        let storage = SharedMemory::default();
        // A window far longer than any test timeout: only the
        // flush-requested path can acknowledge promptly.
        let writer = Arc::new(BackgroundWriter::on_runtime(
            storage.clone(),
            PipelineConfig::group_commit(Duration::from_secs(600)),
            &Runtime::new(1),
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        let started = Instant::now();
        writer.flush().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "flush must not wait out the window timer"
        );
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        writer.shutdown().unwrap();
    }

    #[test]
    fn flush_spanning_multiple_group_budgets_is_not_stranded() {
        let storage = SharedMemory::default();
        // A tiny group budget forces the flusher's events across several
        // commits; the flusher must lead every one of them, or the last
        // group waits out the 600 s window and this test hangs.
        let writer = Arc::new(BackgroundWriter::on_runtime(
            storage.clone(),
            PipelineConfig {
                max_group_events: 4,
                ..PipelineConfig::group_commit(Duration::from_secs(600))
            },
            &Runtime::new(1),
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        for i in 0..7 {
            repo.comment("alice", &id, "2014-03-28", &format!("s{i}"))
                .unwrap();
        }
        writer.enqueue(&repo.drain_events()); // 10 events > 2 budgets
        let started = Instant::now();
        writer.flush().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "flush must not wait out any window timer"
        );
        let stats = writer.stats();
        assert_eq!(stats.durable, 10);
        assert!(
            stats.fsyncs >= 3,
            "a 4-event budget splits 10 events over ≥ 3 windows, got {}",
            stats.fsyncs
        );
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        writer.shutdown().unwrap();
    }

    #[test]
    fn a_window_after_one_a_flush_closed_early_still_times_out() {
        // The first event arms the task's window; the flush commits it
        // on its own thread, but that deadline stays armed. The second
        // batch, queued before that deadline, cannot arm its own (the
        // earliest deadline wins), so the pass the first one wakes must
        // commit it: the window is an upper bound on the lag of events
        // nobody flushes, not a fixed delay.
        let window = Duration::from_millis(200);
        let storage = SharedMemory::default();
        let writer = BackgroundWriter::on_runtime(
            storage.clone(),
            PipelineConfig::group_commit(window),
            &Runtime::new(1),
            "writer",
        );
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        // Let the first deadline run part of its course before the flush
        // commits what it was armed for.
        std::thread::sleep(window / 4);
        writer.flush().unwrap();
        repo.register(Principal::member("alice")).unwrap();
        repo.contribute("alice", entry("COMPOSERS")).unwrap();
        let opened = Instant::now();
        writer.enqueue(&repo.drain_events());
        while lag(&writer) > 0 && opened.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(lag(&writer), 0, "the second window never closed");
        assert!(
            opened.elapsed() < 5 * window,
            "the second window took {:?}",
            opened.elapsed()
        );
        assert_eq!(writer.stats().fsyncs, 2, "one flush commit, one timeout");
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
    }

    #[test]
    fn shutdown_fsyncs_an_open_window() {
        let storage = SharedMemory::default();
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        repo.register(Principal::member("alice")).unwrap();
        {
            let writer = BackgroundWriter::on_runtime(
                storage.clone(),
                PipelineConfig::group_commit(Duration::from_secs(600)),
                &Runtime::new(1),
                "writer",
            );
            writer.enqueue(&repo.drain_events());
            // No flush: Drop's shutdown must close the window durably.
        }
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
    }

    /// The `HealthReport::WriterFailed` errors `component` published, in
    /// order, taken off the runtime's channel.
    fn failures(runtime: &Runtime, component: &str) -> Vec<String> {
        runtime
            .health()
            .drain()
            .into_iter()
            .filter(|entry| entry.component == component)
            .map(|entry| match entry.report {
                HealthReport::WriterFailed { error } => error,
                other => panic!("a writer published {other:?}"),
            })
            .collect()
    }

    #[test]
    fn commits_publish_nothing_and_a_failure_publishes_once() {
        let runtime = Runtime::new(1);
        let storage = SharedMemory::default();
        let writer = Arc::new(BackgroundWriter::on_runtime(
            storage.clone(),
            PipelineConfig::group_commit(Duration::from_millis(2)),
            &runtime,
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        repo.contribute("alice", entry("COMPOSERS")).unwrap();
        writer.flush().unwrap();
        writer.shutdown().unwrap();
        assert_eq!(writer.stats().durable, writer.stats().enqueued);
        assert!(writer.stats().fsyncs >= 1);
        assert!(
            runtime.health().drain().is_empty(),
            "commit points are counted on the writer, not published"
        );

        // A failing backend publishes its error exactly once, however
        // many events it then drops.
        let broken = Arc::new(BackgroundWriter::on_runtime(
            BrokenBackend,
            PipelineConfig::default(),
            &runtime,
            "broken",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        broken.enqueue(&repo.drain_events());
        assert!(broken.flush().is_err());
        repo.subscribe(broken.clone());
        repo.register(Principal::member("alice")).unwrap();
        assert!(broken.shutdown().is_err(), "the error stays sticky");
        assert!(broken.stats().dropped >= 2);
        let failures = failures(&runtime, "broken");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("disk on fire"));
    }

    #[test]
    fn writers_on_a_shared_runtime_keep_their_own_counters() {
        let runtime = Runtime::new(2);
        let storages: Vec<SharedMemory> = (0..4).map(|_| SharedMemory::default()).collect();
        let writers: Vec<BackgroundWriter> = storages
            .iter()
            .enumerate()
            .map(|(i, storage)| {
                BackgroundWriter::on_runtime(
                    storage.clone(),
                    PipelineConfig::group_commit(Duration::from_millis(2)),
                    &runtime,
                    &format!("writer:s{i}"),
                )
            })
            .collect();
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        let events = repo.drain_events();
        for writer in &writers {
            writer.enqueue(&events);
            writer.flush().unwrap();
        }
        for (writer, storage) in writers.iter().zip(&storages) {
            assert_eq!(
                storage.0.lock().unwrap().restore().unwrap(),
                repo.snapshot()
            );
            writer.shutdown().unwrap();
            assert_eq!(writer.stats().durable, events.len() as u64);
        }
        assert!(
            runtime.health().drain().is_empty(),
            "healthy writers are quiet"
        );
        // And the shared pool stayed at its configured width the whole
        // time: tasks, not threads, per writer.
        assert_eq!(runtime.pool_stats().threads, 2);
    }

    #[test]
    fn a_tail_repair_at_open_is_published_on_the_unified_channel() {
        use std::io::Write as _;
        let dir = crate::test_support::unique_dir("pipe-torn");
        {
            let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
            let repo = Repository::found("bx", vec![Principal::curator("c")]);
            backend.record(&repo.drain_events()).unwrap();
        }
        let torn = b"{\"Commented\":{\"id\":\"co";
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("events-0.jsonl"))
            .unwrap();
        file.write_all(torn).unwrap();
        drop(file);

        let runtime = Runtime::new(2);
        let backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        let writer =
            BackgroundWriter::on_runtime(backend, PipelineConfig::default(), &runtime, "writer");
        let repaired = runtime.health().drain().into_iter().any(|entry| {
            entry.component == "writer"
                && matches!(
                    entry.report,
                    HealthReport::TailRepaired { ref file, bytes_dropped }
                        if file == "events-0.jsonl" && bytes_dropped == torn.len() as u64
                )
        });
        assert!(repaired, "the open-time repair reaches the unified channel");
        writer.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_surfaces_backend_errors_via_flush() {
        let runtime = Runtime::new(1);
        let writer = Arc::new(BackgroundWriter::on_runtime(
            BrokenBackend,
            PipelineConfig::group_commit(Duration::from_millis(2)),
            &runtime,
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        let err = writer.flush().unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("disk on fire")));
        assert!(writer.shutdown().is_err());
        let failures = failures(&runtime, "writer");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("disk on fire"));
    }

    /// A backend whose every `record` panics: a bug, not an I/O error.
    struct PanickingBackend;

    impl StorageBackend for PanickingBackend {
        fn record(&mut self, _events: &[RepoEvent]) -> Result<(), RepoError> {
            panic!("backend bug");
        }
        fn checkpoint(
            &mut self,
            _snapshot: &crate::repo::RepositorySnapshot,
        ) -> Result<(), RepoError> {
            Ok(())
        }
        fn restore(&self) -> Result<crate::repo::RepositorySnapshot, RepoError> {
            Ok(crate::repo::RepositorySnapshot::empty(""))
        }
    }

    /// Run `body` on a helper thread and wait at most 5 s for its result:
    /// a call that hangs comes back as `Err` instead of hanging the test
    /// (the thread is left detached, since a hung one cannot be joined).
    fn within<T: Send + 'static>(
        body: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, mpsc::RecvTimeoutError> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(body()));
        rx.recv_timeout(Duration::from_secs(5))
    }

    #[test]
    fn a_panicking_backend_fails_the_writer_instead_of_hanging_every_flush() {
        let runtime = Runtime::new(1);
        let events = Repository::found("bx", vec![Principal::curator("c")]).drain_events();

        // The task commits and panics: the pool survives the unwind, and
        // the writer must count the loss and fail rather than strand
        // every later flush on a group that is never counted.
        let writer = Arc::new(BackgroundWriter::on_runtime(
            PanickingBackend,
            PipelineConfig::default(),
            &runtime,
            "task",
        ));
        writer.enqueue(&events);
        let deadline = Instant::now() + Duration::from_secs(5);
        while runtime.pool_stats().panics_caught == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(runtime.pool_stats().panics_caught, 1, "the task committed");
        let flusher = Arc::clone(&writer);
        let flushed = within(move || flusher.flush()).expect("a flush after a task panic hung");
        assert!(matches!(flushed, Err(RepoError::Persist(ref m)) if m.contains("panicked")));
        assert_eq!(writer.stats().dropped, writer.stats().enqueued);
        let failed = failures(&runtime, "task");
        assert!(
            failed.len() == 1 && failed[0].contains("panicked"),
            "{failed:?}"
        );

        // A flush leads its own commit and the panic unwinds on its own
        // thread; the writer is failed, not wedged in a commit that
        // never ends, so every later flush and the shutdown return.
        let leader = Arc::new(BackgroundWriter::on_runtime(
            PanickingBackend,
            PipelineConfig::group_commit(Duration::from_secs(600)),
            &runtime,
            "leader",
        ));
        leader.enqueue(&events);
        let first = Arc::clone(&leader);
        let unwound =
            within(move || std::panic::catch_unwind(AssertUnwindSafe(|| first.flush())).is_err());
        assert!(
            unwound.expect("the leading flush hung"),
            "the panic reaches the leader"
        );
        let second = Arc::clone(&leader);
        assert!(within(move || second.flush())
            .expect("a later flush hung")
            .is_err());
        let closer = Arc::clone(&leader);
        assert!(within(move || closer.shutdown())
            .expect("shutdown hung")
            .is_err());

        let failed = failures(&runtime, "leader");
        assert!(
            failed.len() == 1 && failed[0].contains("panicked"),
            "{failed:?}"
        );
    }

    #[test]
    fn a_flush_commits_on_its_own_thread() {
        // Park the runtime's only worker: the writer task cannot run, so
        // only a flush that commits on its caller's thread returns.
        let runtime = Runtime::new(1);
        let (release, parked) = mpsc::channel::<()>();
        let (started, worker_busy) = mpsc::channel::<()>();
        runtime.pool().execute(move || {
            started.send(()).unwrap();
            parked.recv().ok();
        });
        worker_busy.recv().unwrap();

        let storage = SharedMemory::default();
        let writer = Arc::new(BackgroundWriter::on_runtime(
            storage.clone(),
            PipelineConfig::default(),
            &runtime,
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        let flusher = Arc::clone(&writer);
        let flushed = within(move || flusher.flush());
        let recorded = storage.0.lock().unwrap().restore().unwrap();
        // Free the worker before asserting, so a failure cannot wedge
        // the writer's shutdown on it.
        release.send(()).unwrap();
        assert!(flushed.expect("the flush waited for a worker").is_ok());
        assert_eq!(recorded, repo.snapshot());
        writer.shutdown().unwrap();
    }

    #[test]
    fn concurrent_flushers_share_commits_and_converge_on_disk() {
        let dir = crate::test_support::unique_dir("pipe-leaders");
        let runtime = Runtime::new(2);
        let backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        let writer = Arc::new(BackgroundWriter::on_runtime(
            backend,
            PipelineConfig::default(),
            &runtime,
            "writer",
        ));
        let repo = Arc::new(Repository::found("bx", vec![Principal::curator("c")]));
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let (repo, writer, id) = (Arc::clone(&repo), Arc::clone(&writer), id.clone());
                std::thread::spawn(move || {
                    for step in 0..50 {
                        repo.comment("alice", &id, "2014-03-28", &format!("t{t} s{step}"))
                            .unwrap();
                        writer.flush().unwrap();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let stats = writer.stats();
        assert_eq!(stats.durable, stats.enqueued);
        assert!(
            stats.fsyncs < stats.durable,
            "concurrent flushers share commits: {} fsyncs for {} events",
            stats.fsyncs,
            stats.durable
        );
        writer.shutdown().unwrap();
        let cold = crate::storage::EventLogBackend::open(&dir).unwrap();
        assert_eq!(cold.restore().unwrap(), repo.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }
}
