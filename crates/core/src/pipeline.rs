//! The background durability pipeline: a writer task fed by a bounded
//! channel, draining committed [`RepoEvent`]s into any
//! [`StorageBackend`].
//!
//! [`BackgroundWriter`] is an [`EventSink`]: subscribe it to a
//! [`crate::repo::Repository`] and persistence leaves the mutating
//! caller's thread — `contribute`/`revise`/… return as soon as the event
//! is *enqueued*; the writer batches queued events and calls
//! `StorageBackend::record` off to the side. The writer is a
//! [`crate::runtime::SerialTask`] tenant on a caller's [`Runtime`]
//! ([`BackgroundWriter::on_runtime`]): many writers share one bounded
//! pool — a federation's per-source writers run as N serialized tasks
//! on a handful of threads, each closing its group-commit window by
//! arming its own task ([`SerialTask::notify_in`]) instead of sleeping.
//! Its counters live on [`BackgroundWriter::stats`]; the runtime's health
//! channel hears from a writer only when it fails
//! ([`HealthReport::WriterFailed`]) or repaired a torn tail at open. Four
//! properties define the pipeline:
//!
//! * **Bounded, with backpressure.** The channel holds at most
//!   [`PipelineConfig::channel_capacity`] events. When it is full,
//!   `accept` blocks the mutating caller until the writer catches up —
//!   durability lag is bounded by the channel, never unbounded memory.
//!   Every such stall is counted ([`PipelineStats::backpressure_waits`]).
//! * **Explicit flush.** [`BackgroundWriter::flush`] blocks until every
//!   event enqueued before the call is durably recorded (or the writer
//!   has failed), surfacing any backend error. Write errors are sticky:
//!   after one, subsequent events are discarded (counted in
//!   [`PipelineStats::dropped`]) rather than blocking writers forever,
//!   and every later `flush`/`shutdown` keeps returning the error.
//! * **Group commit.** The backend's `record` only stages, and
//!   `StorageBackend::flush_durable` is its one fsync point. The writer
//!   holds an fsync window of [`PipelineConfig::group_commit_window`]
//!   open: it records *everything* concurrent producers queue and
//!   issues **one** `flush_durable` when the window closes — on the
//!   window's deadline, at [`PipelineConfig::max_group_events`], at
//!   shutdown, or early when a `flush` caller is waiting. One fsync then acknowledges every
//!   producer in the window ([`PipelineStats::durable`] over
//!   [`PipelineStats::fsyncs`] is the amortisation). The default window
//!   is zero: each pass closes the window it opened, one fsync per
//!   batch.
//! * **Drop-shutdown.** Dropping the writer (or calling
//!   [`BackgroundWriter::shutdown`]) drains the queue to the backend —
//!   closing any open group-commit window with its fsync — and waits for
//!   the writer task to confirm, so a scope exit cannot lose
//!   acknowledged events.
//!
//! The backend is moved into the writer task. For the scaling backend
//! ([`crate::storage::EventLogBackend`]), wrap it in
//! [`crate::storage::AutoCompactingEventLog`] first and the pipeline
//! checkpoints/prunes as it writes.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::RepoError;
use crate::event::{EventSink, RepoEvent};
use crate::runtime::{HealthReport, Runtime, RuntimeHealth, SerialTask};
use crate::storage::StorageBackend;

/// Default bound on the writer's input channel, in events.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// Default cap on how many events one group-commit window may cover
/// before it is forced closed (bounds both ack latency and the clean
/// suffix a crash inside the window can lose).
pub const DEFAULT_MAX_GROUP_EVENTS: usize = 4096;

/// Tuning knobs for a [`BackgroundWriter`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Channel bound: how many events may sit between the writers and the
    /// backend before `accept` applies backpressure.
    pub channel_capacity: usize,
    /// How long a group-commit window stays open after its first staged
    /// event before its one fsync. Zero (the default) closes every window
    /// in the pass that opened it: one fsync per batch.
    pub group_commit_window: Duration,
    /// Most events one window may cover before its fsync is forced (≥ 1):
    /// bounds ack latency, the batch handed to one `record` call and the
    /// clean suffix a crash inside the window can lose.
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
    /// Events accepted into the channel.
    pub enqueued: u64,
    /// Events durably recorded by the backend (past its fsync point).
    pub durable: u64,
    /// Events discarded because the writer had already failed.
    pub dropped: u64,
    /// How many times an `accept` blocked on a full channel.
    pub backpressure_waits: u64,
    /// Durability commit points the writer has issued, one per closed
    /// window; `durable / fsyncs` is the realised amortisation factor.
    /// (Real `sync_all` calls on file-backed backends; commit points on
    /// memory ones.)
    pub fsyncs: u64,
}

/// Everything the producer side and the writer task share.
struct Shared {
    state: Mutex<State>,
    /// Signalled when queue space frees up.
    not_full: Condvar,
    /// Signalled when `durable` advances, the writer fails, or the
    /// shutdown drain completes (`State::closed`).
    progress: Condvar,
    /// A failure publishes [`HealthReport::WriterFailed`] here under
    /// `component`.
    health: Arc<RuntimeHealth>,
    component: String,
}

struct State {
    queue: VecDeque<RepoEvent>,
    capacity: usize,
    shutdown: bool,
    /// The shutdown drain has completed: every accepted event is durable
    /// (or the error is sticky) and the writer task will do no more work.
    closed: bool,
    /// A `flush` caller is waiting: an open group-commit window should
    /// close at the next opportunity instead of running out its timer.
    flush_requested: bool,
    /// Events recorded on the backend but not yet covered by a
    /// `flush_durable`.
    staged: usize,
    /// When the open group-commit window times out; `None` when no
    /// window is open. The close is driven by the writer task arming
    /// itself for this instant, not by a sleeping thread.
    window_deadline: Option<Instant>,
    /// First backend error, stringified; sticky once set.
    error: Option<String>,
    stats: PipelineStats,
}

/// The background durability pipeline's front end; see the module docs.
pub struct BackgroundWriter {
    shared: Arc<Shared>,
    task: SerialTask,
    /// Keeps the runtime (whose timer closes windows) alive for as long
    /// as the writer, so a caller may drop its own handle.
    _runtime: Arc<Runtime>,
}

impl std::fmt::Debug for BackgroundWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BackgroundWriter")
            .field("stats", &stats)
            .finish()
    }
}

fn lock(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl BackgroundWriter {
    /// Place a writer around `backend` on `runtime`: the writer becomes
    /// one serialized task among the runtime's tenants instead of owning
    /// a thread, and a failure publishes [`HealthReport::WriterFailed`]
    /// under `component` on the runtime's health channel. The writer
    /// holds its own `Arc` of the runtime.
    pub fn on_runtime<B: StorageBackend + Send + 'static>(
        mut backend: B,
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
        let window = config.group_commit_window;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                capacity: config.channel_capacity.max(1),
                shutdown: false,
                closed: false,
                flush_requested: false,
                staged: 0,
                window_deadline: None,
                error: None,
                stats: PipelineStats::default(),
            }),
            not_full: Condvar::new(),
            progress: Condvar::new(),
            health: Arc::clone(runtime.health()),
            component: component.to_string(),
        });
        let group_max = config.max_group_events.max(1);
        let drive_shared = Arc::clone(&shared);
        let task = runtime
            .serial_task(move |task| drive(task, &drive_shared, &mut backend, window, group_max));
        BackgroundWriter {
            shared,
            task,
            _runtime: Arc::clone(runtime),
        }
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
    /// recorded, then report the writer's health. An open group-commit
    /// window closes early for a waiting flush, so acknowledgement
    /// latency is bounded by the in-flight fsync, not the window timer.
    /// Any discarded event fails the flush: a backend error and a
    /// post-shutdown delivery both plant a sticky error, so `Ok(())`
    /// really means "everything accepted so far is on the backend".
    pub fn flush(&self) -> Result<(), RepoError> {
        let target = lock(&self.shared).stats.enqueued;
        let mut state = lock(&self.shared);
        while state.error.is_none() && state.stats.durable + state.stats.dropped < target {
            if state.flush_requested {
                // A pass that sees the flag closes its window, clearing
                // the flag and signalling `progress` under this lock.
                state = self
                    .shared
                    .progress
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Re-asserted whenever a window close cleared the flag, not
            // just once: a window that closed on its group budget (or
            // covered only events enqueued before ours) may leave this
            // flusher unacknowledged, and that close may have cleared the
            // flag while this thread was not yet waiting. Waiting on a
            // cleared flag would leave the next window to its timer.
            state.flush_requested = true;
            drop(state);
            self.task.notify();
            state = lock(&self.shared);
        }
        match &state.error {
            Some(e) => Err(RepoError::Persist(e.clone())),
            None => Ok(()),
        }
    }

    /// Drain the queue, close any open window with its fsync, and wait
    /// for the writer task to confirm it is done, returning the sticky
    /// error, if any. Idempotent; also run (result ignored) by `Drop`.
    pub fn shutdown(&self) -> Result<(), RepoError> {
        {
            let mut state = lock(&self.shared);
            state.shutdown = true;
            self.shared.not_full.notify_all();
        }
        self.task.notify();
        let mut state = lock(&self.shared);
        while !state.closed && state.error.is_none() {
            state = self
                .shared
                .progress
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            if !state.closed && state.error.is_none() {
                // A pass may have gone idle between our notify and the
                // shutdown flag landing; make sure another one runs.
                drop(state);
                self.task.notify();
                state = lock(&self.shared);
            }
        }
        let result = match &state.error {
            Some(e) => Err(RepoError::Persist(e.clone())),
            None => Ok(()),
        };
        drop(state);
        // Wait out any in-flight pass so a failure report has landed on
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
        {
            let mut state = lock(&self.shared);
            // One stall = one count, however many condvar wake-ups it
            // takes (notify_all wakes every blocked producer; most loop
            // again).
            if state.queue.len() >= state.capacity && state.error.is_none() && !state.shutdown {
                state.stats.backpressure_waits += 1;
            }
            while state.queue.len() >= state.capacity && state.error.is_none() && !state.shutdown {
                state = self
                    .shared
                    .not_full
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
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
        }
        self.task.notify();
    }
}

impl Drop for BackgroundWriter {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Mark the shutdown drain complete (nothing queued, nothing staged)
/// and wake shutdown waiters. Caller holds the state lock.
fn confirm_closed(shared: &Shared, state: &mut State) {
    if state.shutdown && !state.closed {
        state.closed = true;
        shared.progress.notify_all();
    }
}

/// One pass of the writer task: stage whatever is queued (up to the
/// group budget), open a window if none is, and close it — with the one
/// `flush_durable` that makes every staged batch durable at once — when
/// the budget fills, the deadline passes, shutdown begins, or a flush
/// caller is waiting on a drained queue. A zero window's deadline has
/// passed as it opens. Never blocks waiting for work or for the
/// deadline: producers (`accept`), flush/shutdown callers and the task's
/// own deadline re-notify it, and it re-notifies itself while work
/// remains, so sibling tenants on a shared runtime are never starved.
fn drive<B: StorageBackend>(
    task: &SerialTask,
    shared: &Shared,
    backend: &mut B,
    window: Duration,
    group_max: usize,
) {
    let (batch, staged_before) = {
        let mut state = lock(shared);
        if state.error.is_some() || (state.queue.is_empty() && state.staged == 0) {
            confirm_closed(shared, &mut state);
            return;
        }
        let n = state.queue.len().min(group_max - state.staged);
        let batch: Vec<RepoEvent> = state.queue.drain(..n).collect();
        if n > 0 {
            shared.not_full.notify_all();
        }
        (batch, state.staged)
    };
    if !batch.is_empty() {
        // Staged, not yet durable: `durable` only advances at the fsync
        // below, so flush waiters cannot be acknowledged early.
        if let Err(e) = backend.record(&batch) {
            fail(shared, staged_before + batch.len(), e);
            return;
        }
    }
    let mut state = lock(shared);
    state.staged += batch.len();
    let now = Instant::now();
    let deadline = *state.window_deadline.get_or_insert(now + window);
    let close = state.staged >= group_max
        || state.shutdown
        || (state.flush_requested && state.queue.is_empty())
        || now >= deadline;
    if close {
        let staged = state.staged;
        drop(state);
        // The window's single fsync point, covering every staged batch.
        if let Err(e) = backend.flush_durable() {
            fail(shared, staged, e);
            return;
        }
        let mut state = lock(shared);
        state.stats.durable += staged as u64;
        state.stats.fsyncs += 1;
        state.staged = 0;
        state.window_deadline = None;
        state.flush_requested = false;
        shared.progress.notify_all();
    } else {
        drop(state);
        // Re-armed on every pass that leaves the window open: the task
        // keeps only its earliest deadline, which may be a stale one from
        // a window a flush closed early, so the pass it wakes re-arms
        // the rest of this window's time.
        task.notify_in(deadline - now);
    }
    let more = {
        let state = lock(shared);
        state.error.is_none() && (!state.queue.is_empty() || (state.shutdown && !state.closed))
    };
    if more {
        task.notify();
    }
}

/// The writer failed with `in_flight` events handed to the backend but
/// not durable (a durable *prefix* of them may exist on disk; recovery
/// reconciles via the primary's journal). They and everything still
/// queued are lost and counted; the error turns sticky and is published
/// as [`HealthReport::WriterFailed`]. Runs at most once per writer: every
/// later pass sees the sticky error and returns.
fn fail(shared: &Shared, in_flight: usize, e: RepoError) {
    let error = e.to_string();
    {
        let mut state = lock(shared);
        state.stats.dropped += in_flight as u64;
        state.stats.dropped += state.queue.len() as u64;
        state.queue.clear();
        if state.error.is_none() {
            state.error = Some(error.clone());
        }
        state.flush_requested = false;
        state.staged = 0;
        state.window_deadline = None;
        shared.not_full.notify_all();
        shared.progress.notify_all();
    }
    // Outside the lock: an observer may call back into the writer.
    shared
        .health
        .report(&shared.component, HealthReport::WriterFailed { error });
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // windows; each window fsync clears `flush_requested`, so the
        // flusher must re-arm it or the last window waits out the 600 s
        // timer and this test hangs.
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
        // The first window's deadline stays armed after the flush closes
        // it; the second window, opened before that deadline, cannot arm
        // its own (the earliest deadline wins). The pass the stale one
        // wakes must re-arm the rest of the second window, or it stays
        // open until the next producer or flush.
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
        // Let the pass open the first window and arm its deadline before
        // the flush closes it.
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
        assert_eq!(writer.stats().fsyncs, 2, "one flush close, one timeout");
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
}
