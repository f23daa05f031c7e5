//! The shared background runtime: one scheduler for all background work.
//!
//! A [`Runtime`] is the only source of worker threads and the only
//! health channel in bx-core. Every background tenant (the durability
//! writer, the replica daemon, the law checker) and every parallel
//! restore is built on a caller's `&Arc<Runtime>` plus a component name;
//! none of them owns threads of its own. A runtime bundles:
//!
//! * **A worker pool** (crate-private) — a fixed set of named threads
//!   (`bx-worker-0` … `bx-worker-{n-1}`) draining a shared job queue.
//!   Ordered scatter/gather ([`Runtime::scatter`]) is the scoped-job
//!   primitive: results come back in **submission order** regardless of
//!   completion order, which is what makes error reporting from
//!   parallel decode deterministic (the first error *in log order*
//!   wins, not the first to be discovered). Workers are panic-safe: a
//!   panicking job is caught, counted ([`PoolStats::panics_caught`])
//!   and the worker keeps draining; `scatter` re-raises the **first
//!   panic in submission order** on the calling thread. A `scatter`
//!   issued *from* a worker thread runs the nested batch inline on the
//!   calling worker instead of deadlocking the pool.
//!
//! * **[`SerialTask`]** — the one way a tenant is scheduled: a `FnMut`
//!   that is never run concurrently with itself, woken now
//!   ([`SerialTask::notify`]) or, for this crate's own tenants, after a
//!   delay (the crate-private `SerialTask::notify_in`).
//!   Wake-ups coalesce: a `notify()` while a run is in progress marks one
//!   re-run instead of queueing a duplicate, and a task holds at most one
//!   armed deadline, the earliest asked for. Deadlines wait in the
//!   pool's queue beside its jobs: an idle worker sleeps until the
//!   earliest one and wakes the due tasks onto the pool itself, so the
//!   runtime has no thread but its workers.
//!   The work closure receives its own task, so a tenant re-arms itself
//!   (the writer's next group, the daemon's next pass, the law
//!   checker's next bounded batch) without holding a handle to itself.
//!
//! * **[`RuntimeHealth`]** — the unified health channel. It carries only
//!   discrete transitions, each a [`HealthReport`] tagged with a
//!   component name: a writer failing, a federated source changing
//!   supervision state, a torn tail repaired, a lint check panicking, a
//!   checkpoint taken. Observers drain the bounded backlog or read the
//!   latest report of one component. Counters live on their owners and
//!   are never copied here: `BackgroundWriter::stats`,
//!   `ReplicaDaemon::stats`, `LawChecker::checks_run` and
//!   [`Runtime::pool_stats`]. A tenant in steady state publishes
//!   nothing.
//!
//! The pool runs `'static` jobs: callers share read-only inputs via
//! [`std::sync::Arc`] and partition mutable state by *moving* disjoint
//! pieces into each job (see `replay_parallel`, which moves each shard's
//! `EntryRecord`s in and back out). `scatter` blocks until every
//! submitted job has finished, so by the time it returns no worker
//! holds any job state.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Set for the lifetime of every pool worker thread; lets `scatter`
    /// detect that it is being called from inside the pool (nested
    /// scatter) and fall back to running the batch inline instead of
    /// deadlocking. Worker threads are also identifiable from the
    /// outside by their `{prefix}-{i}` names.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Counters a runtime's worker pool keeps about itself; snapshot via
/// [`Runtime::pool_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Jobs that finished running (including panicked ones).
    pub jobs_run: u64,
    /// Jobs that panicked; each was caught and its worker kept alive.
    pub panics_caught: u64,
}

/// What the workers wait on: jobs to run and deadlines to fire.
struct Queue {
    jobs: VecDeque<Job>,
    /// Armed wake-ups, at most one per task; a handful of tenants, so a
    /// plain list. Weak: a deadline never keeps its task alive, so a
    /// wake for a dropped task lapses.
    deadlines: Vec<(Instant, Weak<SerialInner>)>,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled when a job is enqueued, a deadline becomes the earliest
    /// or shutdown begins.
    available: Condvar,
    shutdown: AtomicBool,
    jobs_run: AtomicU64,
    panics_caught: AtomicU64,
}

/// A fixed-size pool of named worker threads; see the module docs.
/// Crate-private: callers reach it only through a [`Runtime`].
///
/// Dropping the pool signals shutdown and joins every worker: jobs
/// already dequeued run to completion, queued-but-unstarted jobs are
/// still drained (the queue is emptied before workers exit), so no
/// submitted work is silently lost; armed deadlines lapse. Every task
/// holds the pool, so by then no task that could be woken is left. A
/// panicking job never kills its worker: the unwind is caught in the
/// worker loop, counted, and the thread returns to draining the queue.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least 1), named
    /// `{prefix}-0` … `{prefix}-{n-1}` so thread dumps say who owns each
    /// thread.
    pub(crate) fn named(prefix: &str, threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                deadlines: Vec::new(),
            }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_run: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{prefix}-{i}"))
                    .spawn(move || {
                        IN_POOL_WORKER.with(|f| f.set(true));
                        Self::work(&shared)
                    })
                    .expect("spawning a worker thread succeeds")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of the pool's own counters.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.workers.len(),
            jobs_run: self.shared.jobs_run.load(Ordering::Relaxed),
            panics_caught: self.shared.panics_caught.load(Ordering::Relaxed),
        }
    }

    /// Whether the calling thread is a pool worker (of *any* pool).
    /// `scatter` uses this to run nested batches inline.
    fn on_worker_thread() -> bool {
        IN_POOL_WORKER.with(|f| f.get())
    }

    /// Enqueue one fire-and-forget job.
    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.lock().jobs.push_back(Box::new(job));
        self.shared.available.notify_one();
    }

    /// Arm `task` for `at`, unless it already holds an earlier deadline.
    /// Idle workers all sleep until the earliest deadline, so only a new
    /// earliest one has to wake them to re-time their sleep.
    fn arm(&self, task: &Arc<SerialInner>, at: Instant) {
        let mut queue = self.shared.lock();
        let earliest = queue.deadlines.iter().map(|(armed, _)| *armed).min();
        let mine = Arc::as_ptr(task);
        match queue.deadlines.iter_mut().find(|(_, t)| t.as_ptr() == mine) {
            Some((armed, _)) if *armed <= at => return,
            Some((armed, _)) => *armed = at,
            None => queue.deadlines.push((at, Arc::downgrade(task))),
        }
        drop(queue);
        if earliest.is_none_or(|earliest| at < earliest) {
            self.shared.available.notify_all();
        }
    }

    /// Run a batch of jobs to completion and return their results **in
    /// submission order** (independent of which worker finished first).
    /// Blocks the calling thread until the whole batch is done — the
    /// scoped-job discipline: after `scatter` returns, no worker holds
    /// any state from this batch.
    ///
    /// Panic contract: every job runs (a panic in one job does not stop
    /// the others), and if any panicked, the **first panic in
    /// submission order** is re-raised on the calling thread once the
    /// batch is drained. The workers themselves survive.
    ///
    /// Called from *inside* a pool worker (any pool), the batch runs
    /// inline on the calling worker instead — same ordering and panic
    /// contract — because parking a worker in `scatter` while the
    /// nested jobs sit behind it in the queue can deadlock the pool.
    pub(crate) fn scatter<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        if Self::on_worker_thread() {
            return self.scatter_inline(jobs);
        }
        let n = jobs.len();
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let shared = Arc::clone(&self.shared);
            self.execute(move || {
                let result = catch_unwind(AssertUnwindSafe(job));
                if result.is_err() {
                    shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                }
                // A receiver dropped early (scatter unwound) is fine:
                // the result is simply discarded.
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        for (i, result) in rx.iter().take(n) {
            slots[i] = Some(result);
        }
        Self::unwrap_batch(slots)
    }

    /// The nested-scatter fallback: run the batch on the calling worker,
    /// preserving the ordering and first-panic-in-submission-order
    /// contract of the pooled path.
    fn scatter_inline<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let slots: Vec<Option<std::thread::Result<T>>> = jobs
            .into_iter()
            .map(|job| {
                let result = catch_unwind(AssertUnwindSafe(job));
                if result.is_err() {
                    self.shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                }
                self.shared.jobs_run.fetch_add(1, Ordering::Relaxed);
                Some(result)
            })
            .collect();
        Self::unwrap_batch(slots)
    }

    /// Unwrap a completed batch: re-raise the first panic in submission
    /// order, otherwise return the values in submission order.
    fn unwrap_batch<T>(slots: Vec<Option<std::thread::Result<T>>>) -> Vec<T> {
        let mut results = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot.expect("every scattered job reports exactly once") {
                Ok(value) => results.push(value),
                Err(payload) => resume_unwind(payload),
            }
        }
        results
    }

    /// The worker loop. Each pass, under the queue lock: fire the due
    /// deadlines, else run one job, else return at shutdown (queued jobs
    /// always drain first), else sleep until a job, the earliest
    /// deadline or shutdown. Deadlines come before jobs, so a worker
    /// kept busy by a stream of jobs still fires them. A panicking job
    /// is caught and counted; the worker stays alive.
    fn work(shared: &PoolShared) {
        let mut queue = shared.lock();
        loop {
            let now = Instant::now();
            let due: Vec<Weak<SerialInner>> = queue
                .deadlines
                .extract_if(.., |(at, _)| *at <= now)
                .map(|(_, task)| task)
                .collect();
            if !due.is_empty() {
                // Unlock first: `notify` takes the task's state lock,
                // then this one to enqueue the run. Nothing takes this
                // lock and then a task's state lock, so that order
                // cannot deadlock.
                drop(queue);
                for task in due.iter().filter_map(Weak::upgrade) {
                    SerialInner::notify(&task);
                }
            } else if let Some(job) = queue.jobs.pop_front() {
                drop(queue);
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                }
                shared.jobs_run.fetch_add(1, Ordering::Relaxed);
            } else if shared.shutdown.load(Ordering::Acquire) {
                return;
            } else {
                // No lost wake-up: this worker has held the lock since
                // it looked for deadlines, jobs and shutdown, and
                // `execute`, `arm` and the pool's `drop` change those
                // under the same lock before they notify, so each change either
                // came before the look or finds this worker waiting.
                // Every idle worker waits for the earliest deadline,
                // and `arm` wakes them all when that moves earlier.
                queue = match queue.deadlines.iter().map(|(at, _)| *at).min() {
                    None => shared
                        .available
                        .wait(queue)
                        .unwrap_or_else(|e| e.into_inner()),
                    Some(at) => {
                        shared
                            .available
                            .wait_timeout(queue, at - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                };
                continue;
            }
            queue = shared.lock();
        }
    }
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // Set the flag under the queue lock: `work` checks it and
            // then waits while holding that lock, so a worker is either
            // before the check (and sees the flag) or already waiting
            // (and gets the notify). An unlocked store could land between
            // a worker's check and its wait; that worker would sleep
            // through the notify and `join` below would never return.
            let _queue = self.shared.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            // The last Arc holding a pool can be dropped *from a pool
            // job* (a task's run, a detached job): a worker
            // must never join itself. Dropping the handle detaches the
            // thread; it exits on its own since shutdown is set.
            if worker.thread().id() == me {
                continue;
            }
            let _ = worker.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Unified health channel
// ---------------------------------------------------------------------------

/// One discrete transition of a runtime tenant, pushed through
/// [`RuntimeHealth`].
///
/// Only changes are published: a writer failing, a federated source
/// moving between supervision states, a torn tail repaired at open, a
/// check panicking, a checkpoint taken. Counters live on their owners
/// (`BackgroundWriter::stats`, `ReplicaDaemon::stats`,
/// `LawChecker::checks_run`), so a tenant in steady state publishes
/// nothing. Variants carry plain owned values so observers need no
/// per-tenant imports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthReport {
    /// A durability writer failed; its error is now sticky and every
    /// later event is dropped. Published once per writer.
    WriterFailed { error: String },
    /// A compaction pass on an auto-compacting log; the component
    /// names the log.
    Compaction { checkpoints: u64, pruned_files: u64 },
    /// A law check panicked on a pool worker: the entry's findings are
    /// stale until it is dirtied again. The checker's other entries are
    /// unaffected.
    CheckPanicked {
        /// The entry whose check panicked.
        entry: String,
    },
    /// A federated source's supervision state changed: a failure moved
    /// it along `healthy → degraded → quarantined`, a successful poll
    /// recovered it, or a `SalvagePrefix` recovery ran. Published by
    /// `Federation::catch_up` for every transition, never for steady
    /// state — absence of reports means nothing changed.
    Source {
        /// The `SourceId` of the affected source.
        source: String,
        /// New state label: `"healthy"`, `"degraded"`, `"quarantined"`.
        state: String,
        /// Consecutive failures so far (0 after a recovery).
        consecutive_failures: u32,
        /// The poll error that drove a failure transition.
        error: Option<String>,
        /// Milliseconds until the next retry is due, if backed off.
        retry_in_ms: Option<u64>,
        /// Bytes dropped by the `SalvagePrefix` recovery this report
        /// announces (`None` when no salvage happened).
        salvaged_bytes: Option<u64>,
    },
    /// A torn tail (crash fragment) was truncated while opening an
    /// event-log backend — previously a silent repair, now on the
    /// record.
    TailRepaired {
        /// The repaired log file (relative name).
        file: String,
        /// How many torn bytes were dropped.
        bytes_dropped: u64,
    },
}

/// One sequenced, component-tagged health report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentHealth {
    /// Monotonic per-runtime sequence number (drain order).
    pub seq: u64,
    /// Component name, e.g. `"writer:s0"`, `"daemon"`, `"lint"`.
    pub component: String,
    pub report: HealthReport,
}

/// Backlog cap: the channel keeps the most recent reports, dropping the
/// oldest — it is not a durable log. Only transitions are published, so
/// steady traffic never pushes one out.
const HEALTH_BACKLOG: usize = 256;

struct HealthInner {
    seq: u64,
    backlog: VecDeque<ComponentHealth>,
    latest: BTreeMap<String, ComponentHealth>,
}

/// The unified health channel shared by every runtime tenant: the
/// transitions they publish, in order.
///
/// Two consumption styles: [`RuntimeHealth::drain`] the bounded backlog
/// (polling observers), or [`RuntimeHealth::latest`] for dashboards that
/// only want one component's current state.
pub struct RuntimeHealth {
    inner: Mutex<HealthInner>,
}

impl Default for RuntimeHealth {
    fn default() -> RuntimeHealth {
        RuntimeHealth::new()
    }
}

impl std::fmt::Debug for RuntimeHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("RuntimeHealth")
            .field("seq", &inner.seq)
            .field("backlog", &inner.backlog.len())
            .field("components", &inner.latest.len())
            .finish()
    }
}

impl RuntimeHealth {
    pub fn new() -> RuntimeHealth {
        RuntimeHealth {
            inner: Mutex::new(HealthInner {
                seq: 0,
                backlog: VecDeque::new(),
                latest: BTreeMap::new(),
            }),
        }
    }

    /// Publish one report for `component`.
    pub fn report(&self, component: &str, report: HealthReport) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.seq += 1;
        let entry = ComponentHealth {
            seq: inner.seq,
            component: component.to_string(),
            report,
        };
        inner.backlog.push_back(entry.clone());
        while inner.backlog.len() > HEALTH_BACKLOG {
            inner.backlog.pop_front();
        }
        inner.latest.insert(entry.component.clone(), entry);
    }

    /// Drain and return the backlog in publish order.
    pub fn drain(&self) -> Vec<ComponentHealth> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.backlog.drain(..).collect()
    }

    /// The most recent report for `component`, if any.
    pub fn latest(&self, component: &str) -> Option<ComponentHealth> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.latest.get(component).cloned()
    }
}

// ---------------------------------------------------------------------------
// Serialized tasks
// ---------------------------------------------------------------------------

struct SerialState {
    /// A run is queued on the pool but has not started.
    scheduled: bool,
    /// A run is currently executing the work closure.
    running: bool,
    /// `notify()` arrived while running: run once more when done.
    rerun: bool,
}

/// A task's work closure; it is handed its own task.
type Work = Box<dyn FnMut(&SerialTask) + Send>;

struct SerialInner {
    work: Mutex<Work>,
    state: Mutex<SerialState>,
    idle: Condvar,
    pool: Arc<WorkerPool>,
}

impl SerialInner {
    /// One pool-job pass: run the closure, then either reschedule (a
    /// notify arrived mid-run) or go idle. Re-enqueueing instead of
    /// looping keeps one chatty task from monopolising a worker.
    fn run(this: &Arc<SerialInner>) {
        {
            let mut state = this.state.lock().unwrap_or_else(|e| e.into_inner());
            state.scheduled = false;
            state.running = true;
        }
        // Release `running` even if the closure panics (the pool
        // catches the unwind); otherwise the task would wedge forever.
        struct Finish<'a>(&'a Arc<SerialInner>);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
                state.running = false;
                if state.rerun {
                    state.rerun = false;
                    state.scheduled = true;
                    drop(state);
                    let inner = Arc::clone(self.0);
                    self.0.pool.execute(move || SerialInner::run(&inner));
                } else {
                    drop(state);
                    self.0.idle.notify_all();
                }
            }
        }
        let _finish = Finish(this);
        let task = SerialTask {
            inner: Arc::clone(this),
        };
        (this.work.lock().unwrap_or_else(|e| e.into_inner()))(&task);
    }

    fn notify(this: &Arc<SerialInner>) {
        {
            let mut state = this.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.running {
                state.rerun = true;
                return;
            }
            if state.scheduled {
                return;
            }
            state.scheduled = true;
        }
        let inner = Arc::clone(this);
        this.pool.execute(move || SerialInner::run(&inner));
    }
}

/// A serialized task on the runtime: a `FnMut` that is never run
/// concurrently with itself, and the only way a tenant is scheduled.
/// [`SerialTask::notify`] schedules a run now; notifies arriving while a
/// run is in progress coalesce into exactly one follow-up run. The
/// crate-private `SerialTask::notify_in` schedules one after a delay.
/// The work closure is handed its own task, so it can re-notify or
/// re-arm itself.
pub struct SerialTask {
    inner: Arc<SerialInner>,
}

impl std::fmt::Debug for SerialTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SerialTask").finish()
    }
}

impl SerialTask {
    /// Schedule a run (coalesced; see the type docs).
    pub fn notify(&self) {
        SerialInner::notify(&self.inner);
    }

    /// Schedule a run `delay` from now. A task holds at most one armed
    /// deadline: an earlier one already armed wins, and a later one is
    /// dropped, so a tenant that needs a later wake-up re-arms from the
    /// run the earlier one causes. Dropping the task lets its deadline
    /// lapse.
    pub(crate) fn notify_in(&self, delay: Duration) {
        self.inner.pool.arm(&self.inner, Instant::now() + delay);
    }

    /// Block until no run is scheduled or in progress. A deadline armed
    /// but not yet due does not count; a concurrent `notify` can of
    /// course schedule a new run right after.
    pub fn wait_idle(&self) {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.scheduled || state.running || state.rerun {
            state = self
                .inner
                .idle
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Deadlines armed for this task and not yet fired.
    #[cfg(test)]
    fn pending_deadlines(&self) -> usize {
        let queue = self.inner.pool.shared.lock();
        let mine = Arc::as_ptr(&self.inner);
        queue
            .deadlines
            .iter()
            .filter(|(_, task)| task.as_ptr() == mine)
            .count()
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// The shared background runtime: one bounded worker pool, which also
/// keeps the tasks' deadlines, and one [`RuntimeHealth`] channel.
/// Components "rent" capacity — the durability writer, the replica
/// daemon and the law checker as [`SerialTask`]s, parallel restore as
/// `scatter` batches — so a node hosting dozens of federated sources
/// runs on one fixed set of threads instead of a thread per component.
///
/// Every task holds the pool, so the pool outlives the last `Runtime`
/// handle while a tenant lives. When the last holder drops it, queued
/// jobs drain, armed deadlines lapse and the workers join.
pub struct Runtime {
    pool: Arc<WorkerPool>,
    health: Arc<RuntimeHealth>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.pool.threads())
            .finish()
    }
}

impl Runtime {
    /// A runtime with `threads` pool workers named `bx-worker-{i}`.
    pub fn new(threads: usize) -> Arc<Runtime> {
        Runtime::named("bx-worker", threads)
    }

    /// A runtime whose workers carry a custom name prefix, so thread
    /// dumps say which node or test owns them.
    pub fn named(prefix: &str, threads: usize) -> Arc<Runtime> {
        Arc::new(Runtime {
            pool: Arc::new(WorkerPool::named(prefix, threads)),
            health: Arc::new(RuntimeHealth::new()),
        })
    }

    /// A runtime sized by [`std::thread::available_parallelism`].
    pub fn with_available_parallelism() -> Arc<Runtime> {
        Runtime::new(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    }

    /// The scatter/gather pool.
    pub(crate) fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The unified health channel.
    pub fn health(&self) -> &Arc<RuntimeHealth> {
        &self.health
    }

    /// Ordered scatter/gather on the pool: results in submission order,
    /// the first panic in submission order re-raised on the caller, and
    /// a nested call from a worker run inline (see the module docs).
    pub fn scatter<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        self.pool.scatter(jobs)
    }

    /// Snapshot the pool's counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// A serialized task on this runtime's pool; see [`SerialTask`].
    pub fn serial_task(&self, work: impl FnMut(&SerialTask) + Send + 'static) -> SerialTask {
        SerialTask {
            inner: Arc::new(SerialInner {
                work: Mutex::new(Box::new(work)),
                state: Mutex::new(SerialState {
                    scheduled: false,
                    running: false,
                    rerun: false,
                }),
                idle: Condvar::new(),
                pool: Arc::clone(&self.pool),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scatter_returns_results_in_submission_order() {
        let pool = WorkerPool::named("bx-worker", 4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| {
                Box::new(move || {
                    // Vary the work so completion order scrambles.
                    std::thread::sleep(std::time::Duration::from_micros((64 - i) as u64 * 10));
                    i * i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = pool.scatter(jobs);
        assert_eq!(results, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::named("bx-worker", 2);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn workers_are_named() {
        let pool = WorkerPool::named("bx-worker", 1);
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![Box::new(|| {
            std::thread::current().name().unwrap_or("").to_string()
        })];
        assert_eq!(pool.scatter(jobs), vec!["bx-worker-0".to_string()]);
    }

    #[test]
    fn empty_scatter_is_fine() {
        let pool = WorkerPool::named("bx-worker", 2);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        assert!(pool.scatter(jobs).is_empty());
    }

    /// The headline regression: a panicking job must not kill its
    /// worker. Before the fix, each panic unwound one worker thread for
    /// good; after enough panics the pool was empty and the next
    /// scatter blocked forever on its result channel.
    #[test]
    fn pool_survives_panicking_jobs() {
        let pool = WorkerPool::named("bx-worker", 2);
        // More panics than workers: under the old behaviour the pool is
        // certainly dead after these.
        for i in 0..8 {
            pool.execute(move || panic!("injected panic {i}"));
        }
        // A subsequent full-width scatter still completes.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| Box::new(move || i + 1) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let results = pool.scatter(jobs);
        assert_eq!(results, (1..=16).collect::<Vec<_>>());
        // The last panicking job can still be unwinding on a sibling
        // worker when scatter returns (and `jobs_run` ticks after each
        // scatter job has already reported); wait for the counters to
        // settle.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (pool.stats().panics_caught < 8 || pool.stats().jobs_run < 24)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pool.stats();
        assert_eq!(stats.panics_caught, 8);
        assert!(stats.jobs_run >= 24);
    }

    #[test]
    fn scatter_reraises_first_panic_in_submission_order() {
        let pool = WorkerPool::named("bx-worker", 4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 2 || i == 5 {
                        // Make the *later* panic finish first so the
                        // test distinguishes submission order from
                        // completion order.
                        if i == 2 {
                            std::thread::sleep(Duration::from_millis(30));
                        }
                        panic!("boom-{i}");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| pool.scatter(jobs)))
            .expect_err("a panicked batch re-raises");
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into());
        assert_eq!(message, "boom-2", "first panic in submission order wins");
        // And the pool is still alive.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![Box::new(|| 7), Box::new(|| 8)];
        assert_eq!(pool.scatter(jobs), vec![7, 8]);
    }

    #[test]
    fn nested_scatter_runs_inline_on_the_worker() {
        let pool = Arc::new(WorkerPool::named("bx-worker", 2));
        let inner_pool = Arc::clone(&pool);
        type NestedJob = Box<dyn FnOnce() -> (bool, Vec<usize>) + Send>;
        let jobs: Vec<NestedJob> = vec![Box::new(move || {
            // From inside a pool job, the worker is detectable and a
            // nested scatter must complete (inline) rather than
            // deadlock every worker in `scatter`.
            let detected = WorkerPool::on_worker_thread();
            let nested: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
                .map(|i| Box::new(move || i * 3) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            (detected, inner_pool.scatter(nested))
        })];
        assert!(!WorkerPool::on_worker_thread());
        let mut results = pool.scatter(jobs);
        let (detected, nested) = results.remove(0);
        assert!(detected, "worker thread is detectable from inside a job");
        assert_eq!(nested, (0..8).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scatter_preserves_panic_contract() {
        let pool = Arc::new(WorkerPool::named("bx-worker", 1));
        let inner_pool = Arc::clone(&pool);
        let ran_after = Arc::new(AtomicUsize::new(0));
        let ran = Arc::clone(&ran_after);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(move || {
            let ran = Arc::clone(&ran);
            let nested: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(|| panic!("nested-boom")),
                // Later jobs in the batch still run before the panic
                // re-raises — same contract as the pooled path.
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
            ];
            let err = catch_unwind(AssertUnwindSafe(|| inner_pool.scatter(nested)))
                .expect_err("nested panic re-raises on the worker");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"nested-boom"));
        })];
        pool.scatter(jobs);
        assert_eq!(ran_after.load(Ordering::SeqCst), 1);
    }

    /// Wait up to 5 s for `done`, polling.
    fn settle(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn notify_in_runs_the_task_once_after_the_delay() {
        let runtime = Runtime::new(2);
        let runs = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&runs);
        let task = runtime.serial_task(move |_| seen.lock().unwrap().push(Instant::now()));
        let armed = Instant::now();
        task.notify_in(Duration::from_millis(30));
        // Not due yet: waiting idle does not wait for the deadline.
        task.wait_idle();
        settle(|| !runs.lock().unwrap().is_empty());
        std::thread::sleep(Duration::from_millis(50));
        let runs = runs.lock().unwrap();
        assert_eq!(runs.len(), 1, "one deadline, one run");
        assert!(runs[0] - armed >= Duration::from_millis(30), "never early");
        assert_eq!(task.pending_deadlines(), 0, "a fired deadline is gone");
    }

    #[test]
    fn re_arming_keeps_at_most_one_deadline_per_task() {
        let runtime = Runtime::new(1);
        let runs = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&runs);
        let task = runtime.serial_task(move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let other = runtime.serial_task(|_| {});
        other.notify_in(Duration::from_secs(600));
        for i in 0..10_000u64 {
            // Later and earlier asks interleave; the earliest wins.
            task.notify_in(Duration::from_secs(600) - Duration::from_millis(i % 97));
            assert!(task.pending_deadlines() <= 1);
        }
        assert_eq!(task.pending_deadlines(), 1);
        assert_eq!(other.pending_deadlines(), 1, "tasks keep their own");
        // An earlier ask moves the one deadline forward.
        task.notify_in(Duration::from_millis(1));
        assert_eq!(task.pending_deadlines(), 1);
        settle(|| runs.load(Ordering::SeqCst) == 1);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(task.pending_deadlines(), 0);
    }

    #[test]
    fn a_wake_for_a_dropped_task_lapses_and_keeps_nothing_alive() {
        let runtime = Runtime::new(1);
        let runs = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&runs);
        let task = runtime.serial_task(move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        task.notify_in(Duration::from_millis(10));
        drop(task);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(runs.load(Ordering::SeqCst), 0, "the wake lapsed");

        // A task whose work holds the runtime, armed far out: dropping
        // the task frees the runtime, and dropping that joins the workers.
        let held = Arc::clone(&runtime);
        let task = runtime.serial_task(move |_| {
            let _ = &held;
        });
        task.notify_in(Duration::from_secs(600));
        drop(task);
        let weak = Arc::downgrade(&runtime);
        drop(runtime);
        assert!(
            weak.upgrade().is_none(),
            "the deadline kept the runtime alive"
        );
    }

    /// The runtime's only threads are its workers: an armed deadline
    /// starts no thread of its own.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_runtime_runs_only_its_workers() {
        let runtime = Runtime::named("bx-only", 2);
        let task = runtime.serial_task(|_| {});
        task.notify_in(Duration::from_secs(600));
        // A spawned thread names itself once it starts: hold both
        // workers in one batch so both have started before the read.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                Box::new(move || {
                    barrier.wait();
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        runtime.scatter(jobs);
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("procfs lists this process's threads")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect();
        let workers = names.iter().filter(|n| n.starts_with("bx-only-")).count();
        assert_eq!(workers, 2, "threads: {names:?}");
        // Every bx thread in the process, from any test's runtime, is a
        // numbered pool worker.
        let numbered = |n: &str| {
            n.rsplit_once('-')
                .is_some_and(|(_, i)| i.parse::<usize>().is_ok())
        };
        let others: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("bx-") && !numbered(n))
            .collect();
        assert!(others.is_empty(), "not pool workers: {others:?}");
        assert_eq!(task.pending_deadlines(), 1);
    }

    #[test]
    fn a_deadline_fires_while_jobs_keep_arriving() {
        /// A job that enqueues its successor until `stop` is set, so the
        /// queue is never empty until then.
        fn chain(pool: Arc<WorkerPool>, stop: Arc<AtomicBool>, done: mpsc::Sender<()>) {
            if stop.load(Ordering::SeqCst) {
                let _ = done.send(());
                return;
            }
            let next = Arc::clone(&pool);
            pool.execute(move || chain(next, stop, done));
        }
        let runtime = Runtime::new(1);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let task = runtime.serial_task(move |_| flag.store(true, Ordering::SeqCst));
        task.notify_in(Duration::from_millis(5));
        let (tx, rx) = mpsc::channel();
        let pool = Arc::clone(runtime.pool());
        let (chain_stop, chain_pool) = (Arc::clone(&stop), Arc::clone(&pool));
        pool.execute(move || chain(chain_pool, chain_stop, tx));
        let fired = rx.recv_timeout(Duration::from_secs(5)).is_ok();
        // End the chain either way, so the pool can shut down.
        stop.store(true, Ordering::SeqCst);
        assert!(fired, "the deadline never fired while jobs kept arriving");
    }

    #[test]
    fn a_task_re_arms_itself_from_its_own_run() {
        let runtime = Runtime::new(1);
        let runs = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&runs);
        let task = runtime.serial_task(move |me| {
            if counter.fetch_add(1, Ordering::SeqCst) < 4 {
                me.notify_in(Duration::from_millis(1));
            }
        });
        task.notify();
        settle(|| runs.load(Ordering::SeqCst) == 5);
        assert_eq!(runs.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn serial_task_coalesces_and_never_overlaps() {
        let runtime = Runtime::new(4);
        let running = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let runs = Arc::new(AtomicUsize::new(0));
        let (running2, max2, runs2) = (
            Arc::clone(&running),
            Arc::clone(&max_seen),
            Arc::clone(&runs),
        );
        let task = runtime.serial_task(move |_| {
            let now = running2.fetch_add(1, Ordering::SeqCst) + 1;
            max2.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            runs2.fetch_add(1, Ordering::SeqCst);
            running2.fetch_sub(1, Ordering::SeqCst);
        });
        for _ in 0..64 {
            task.notify();
        }
        task.wait_idle();
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "never overlaps itself");
        let total = runs.load(Ordering::SeqCst);
        assert!(total >= 1, "notified task runs");
        assert!(total <= 64, "runs are coalesced, not amplified");
    }

    #[test]
    fn serial_task_survives_a_panicking_run() {
        let runtime = Runtime::new(1);
        let runs = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&runs);
        let task = runtime.serial_task(move |_| {
            let n = counter.fetch_add(1, Ordering::SeqCst);
            if n == 0 {
                panic!("first run panics");
            }
        });
        task.notify();
        task.wait_idle();
        task.notify();
        task.wait_idle();
        assert_eq!(
            runs.load(Ordering::SeqCst),
            2,
            "task keeps working after a panic"
        );
        assert_eq!(runtime.pool_stats().panics_caught, 1);
    }

    #[test]
    fn health_channel_sequences_and_caps() {
        let health = RuntimeHealth::new();
        for i in 0..300u64 {
            health.report(
                "storage",
                HealthReport::Compaction {
                    checkpoints: i,
                    pruned_files: 0,
                },
            );
        }
        health.report(
            "lint",
            HealthReport::CheckPanicked {
                entry: "composers".to_string(),
            },
        );
        let latest = health.latest("storage").expect("storage reported");
        assert_eq!(latest.seq, 300);
        assert!(health.latest("lint").is_some());
        let drained = health.drain();
        assert_eq!(drained.len(), HEALTH_BACKLOG, "backlog is bounded");
        assert_eq!(drained[0].seq, 301 - 255, "the oldest are dropped");
        assert!(health.drain().is_empty(), "drain empties the backlog");
    }

    #[test]
    fn runtime_drop_from_pool_job_does_not_self_join() {
        // A detached job can end up holding the last Arc<Runtime>; when
        // it finishes, Drop runs *on a worker thread* and must not try
        // to join that same thread.
        let runtime = Runtime::new(2);
        let held = Arc::clone(&runtime);
        let (tx, rx) = mpsc::channel::<()>();
        runtime.pool().execute(move || {
            std::thread::sleep(Duration::from_millis(10));
            drop(held);
            let _ = tx.send(());
        });
        drop(runtime);
        // If Drop self-joined, this recv would never complete.
        rx.recv_timeout(Duration::from_secs(10))
            .expect("job finishes and the pool shuts down");
    }
}
