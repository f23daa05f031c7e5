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
//! * **Timer wheel** — a single lazy `bx-timer` thread tracking
//!   deadlines; due jobs are fired *onto the pool*, never run on the
//!   timer thread itself. [`Runtime::schedule_periodic`] returns a
//!   [`TimerTask`] whose `cancel()` is prompt (no sleeping out the
//!   period) and waits for an in-flight firing to finish; periodic
//!   firings are coalesced (skip-if-still-running) so a slow tenant
//!   never stacks up behind itself.
//!
//! * **[`SerialTask`]** — the actor-style discipline that replaced the
//!   dedicated per-component threads: a `FnMut` that is never run
//!   concurrently with itself, with coalesced wakeups (`notify()` while
//!   running marks a re-run instead of queueing a duplicate).
//!
//! * **[`RuntimeHealth`]** — the unified health/stats channel. Every
//!   tenant (durability pipeline, replica daemon, compaction, lint)
//!   reports [`HealthReport`]s tagged with a component name; observers
//!   drain the bounded backlog or read the latest-per-component map,
//!   superseding the ad-hoc per-component plumbing.
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
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
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
/// [`Runtime::pool_stats`] or push one as [`HealthReport::Pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Jobs that finished running (including panicked ones).
    pub jobs_run: u64,
    /// Jobs that panicked; each was caught and its worker kept alive.
    pub panics_caught: u64,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is enqueued or shutdown begins.
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
/// submitted work is silently lost. A panicking job never kills its
/// worker: the unwind is caught in the worker loop, counted, and the
/// thread returns to draining the queue.
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
    pub fn named(prefix: &str, threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_run: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                Self::spawn_named(&format!("{prefix}-{i}"), move || {
                    IN_POOL_WORKER.with(|f| f.set(true));
                    Self::work(&shared)
                })
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of the pool's own counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.workers.len(),
            jobs_run: self.shared.jobs_run.load(Ordering::Relaxed),
            panics_caught: self.shared.panics_caught.load(Ordering::Relaxed),
        }
    }

    /// Whether the calling thread is a pool worker (of *any* pool).
    /// `scatter` uses this to run nested batches inline.
    pub fn on_worker_thread() -> bool {
        IN_POOL_WORKER.with(|f| f.get())
    }

    /// Spawn one named OS thread (the naming discipline every bx-core
    /// background thread follows; also used directly by one-shot helpers
    /// that do not need pooling).
    pub fn spawn_named<T: Send + 'static>(
        name: &str,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> JoinHandle<T> {
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(f)
            .expect("spawning a worker thread succeeds")
    }

    /// Enqueue one fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push_back(Box::new(job));
        drop(queue);
        self.shared.available.notify_one();
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
    pub fn scatter<T: Send + 'static>(
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

    /// The worker loop: drain jobs until shutdown *and* the queue is
    /// empty (queued work is never dropped). A panicking job is caught
    /// and counted; the worker stays alive.
    fn work(shared: &PoolShared) {
        loop {
            let job = {
                let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    queue = shared
                        .available
                        .wait(queue)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                shared.panics_caught.fetch_add(1, Ordering::Relaxed);
            }
            shared.jobs_run.fetch_add(1, Ordering::Relaxed);
        }
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
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            // The last Arc holding a pool can be dropped *from a pool
            // job* (a stale timer firing, a detached task): a worker
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

/// One tenant's health snapshot, pushed through [`RuntimeHealth`].
///
/// Variants mirror the runtime's tenants and carry plain owned values
/// so observers need no per-tenant imports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthReport {
    /// The durability pipeline (background writer).
    Pipeline {
        enqueued: u64,
        durable: u64,
        dropped: u64,
        backpressure_waits: u64,
        fsyncs: u64,
        group_commits: u64,
        /// The configured group-commit window, in microseconds.
        window_micros: u64,
        queue_len: usize,
        error: Option<String>,
    },
    /// A replica daemon's polling loop.
    Daemon {
        polls: u64,
        events_applied: u64,
        rebases_detected: u64,
        error: Option<String>,
    },
    /// A compaction pass on an auto-compacting log.
    Compaction {
        /// Which backend kind compacted (e.g. `"events"`, `"binlog"`).
        kind: String,
        checkpoints: u64,
        pruned_files: u64,
    },
    /// The lint engine's incremental checker.
    Lint {
        checks_run: u64,
        entries_with_diagnostics: usize,
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
    /// The pool's own counters.
    Pool(PoolStats),
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

/// Push sink for health reports; invoked outside the channel's lock.
pub type HealthSink = Arc<dyn Fn(&ComponentHealth) + Send + Sync>;

/// Backlog cap: the channel keeps the most recent reports, dropping the
/// oldest — health is a sampling channel, not a durable log.
const HEALTH_BACKLOG: usize = 256;

struct HealthInner {
    seq: u64,
    backlog: VecDeque<ComponentHealth>,
    latest: BTreeMap<String, ComponentHealth>,
}

/// The unified health/stats channel shared by every runtime tenant.
///
/// Three consumption styles: [`RuntimeHealth::drain`] the bounded
/// backlog (polling observers), [`RuntimeHealth::latest`] /
/// [`RuntimeHealth::latest_all`] for dashboards that only want current
/// state, or [`RuntimeHealth::set_sink`] for push delivery.
pub struct RuntimeHealth {
    inner: Mutex<HealthInner>,
    sink: Mutex<Option<HealthSink>>,
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
            sink: Mutex::new(None),
        }
    }

    /// Publish one report for `component`.
    pub fn report(&self, component: &str, report: HealthReport) {
        let entry = {
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
            inner.latest.insert(entry.component.clone(), entry.clone());
            entry
        };
        let sink = self.sink.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(sink) = sink {
            // Outside the lock: a sink may itself inspect the channel.
            sink(&entry);
        }
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

    /// The most recent report of every component that ever reported.
    pub fn latest_all(&self) -> Vec<ComponentHealth> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.latest.values().cloned().collect()
    }

    /// Install (or clear) a push sink. Called outside the channel lock;
    /// keep it fast — it runs on whichever tenant thread reported.
    pub fn set_sink(&self, sink: Option<HealthSink>) {
        *self.sink.lock().unwrap_or_else(|e| e.into_inner()) = sink;
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

type TimerJob = Arc<dyn Fn() + Send + Sync + 'static>;

/// Per-task control block shared between the wheel, the fired pool
/// jobs, and the [`TimerTask`] handle.
struct TimerCtl {
    cancelled: AtomicBool,
    /// `(running, queued)` — `queued` counts firings handed to the pool
    /// but not yet finished; skip-if-running coalescing and
    /// cancel-and-wait both key off this.
    state: Mutex<(bool, u32)>,
    done: Condvar,
}

impl TimerCtl {
    fn new() -> Arc<TimerCtl> {
        Arc::new(TimerCtl {
            cancelled: AtomicBool::new(false),
            state: Mutex::new((false, 0)),
            done: Condvar::new(),
        })
    }
}

struct TimerEntry {
    deadline: Instant,
    /// `None` for detached one-shots.
    period: Option<Duration>,
    job: TimerJob,
    /// `None` for detached one-shots (nothing to cancel or wait on).
    ctl: Option<Arc<TimerCtl>>,
}

struct TimerState {
    entries: BTreeMap<u64, TimerEntry>,
    next_id: u64,
    shutdown: bool,
}

struct TimerShared {
    state: Mutex<TimerState>,
    /// Wakes the timer thread when an entry is added/removed or
    /// shutdown begins.
    changed: Condvar,
}

/// The runtime's deadline tracker: one lazy `bx-timer` thread that
/// fires due jobs onto the pool. Private to [`Runtime`].
struct TimerWheel {
    shared: Arc<TimerShared>,
    pool: Arc<WorkerPool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl TimerWheel {
    fn new(pool: Arc<WorkerPool>) -> TimerWheel {
        TimerWheel {
            shared: Arc::new(TimerShared {
                state: Mutex::new(TimerState {
                    entries: BTreeMap::new(),
                    next_id: 0,
                    shutdown: false,
                }),
                changed: Condvar::new(),
            }),
            pool,
            thread: Mutex::new(None),
        }
    }

    /// Insert an entry and make sure the timer thread exists.
    fn insert(&self, entry: TimerEntry) -> u64 {
        let id = {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            let id = state.next_id;
            state.next_id += 1;
            state.entries.insert(id, entry);
            id
        };
        self.shared.changed.notify_all();
        let mut thread = self.thread.lock().unwrap_or_else(|e| e.into_inner());
        if thread.is_none() {
            let shared = Arc::clone(&self.shared);
            let pool = Arc::clone(&self.pool);
            *thread = Some(WorkerPool::spawn_named("bx-timer", move || {
                Self::run(&shared, &pool)
            }));
        }
        id
    }

    /// Hand one firing of `job` to the pool, honouring the control
    /// block's cancellation and skip-if-running coalescing.
    fn fire(pool: &WorkerPool, job: &TimerJob, ctl: &Option<Arc<TimerCtl>>) {
        match ctl {
            None => {
                let job = Arc::clone(job);
                pool.execute(move || job());
            }
            Some(ctl) => {
                if ctl.cancelled.load(Ordering::Acquire) {
                    return;
                }
                {
                    let mut state = ctl.state.lock().unwrap_or_else(|e| e.into_inner());
                    if state.0 || state.1 > 0 {
                        // Still running (or already queued) from the
                        // previous firing: coalesce, don't stack.
                        return;
                    }
                    state.1 += 1;
                }
                let job = Arc::clone(job);
                let ctl = Arc::clone(ctl);
                pool.execute(move || {
                    if !ctl.cancelled.load(Ordering::Acquire) {
                        {
                            let mut state = ctl.state.lock().unwrap_or_else(|e| e.into_inner());
                            state.0 = true;
                        }
                        // The pool's worker loop catches a panicking
                        // job, but the control block must be released
                        // even then, so guard the flags with a Drop.
                        struct Finish(Arc<TimerCtl>);
                        impl Drop for Finish {
                            fn drop(&mut self) {
                                let mut state =
                                    self.0.state.lock().unwrap_or_else(|e| e.into_inner());
                                state.0 = false;
                                state.1 = state.1.saturating_sub(1);
                                drop(state);
                                self.0.done.notify_all();
                            }
                        }
                        let _finish = Finish(Arc::clone(&ctl));
                        job();
                    } else {
                        let mut state = ctl.state.lock().unwrap_or_else(|e| e.into_inner());
                        state.1 = state.1.saturating_sub(1);
                        drop(state);
                        ctl.done.notify_all();
                    }
                });
            }
        }
    }

    /// The timer thread: sleep until the earliest deadline, fire due
    /// entries onto the pool, reschedule periodics.
    fn run(shared: &TimerShared, pool: &Arc<WorkerPool>) {
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            // Fire everything due; collect jobs first so firing happens
            // with the wheel lock held only briefly per entry.
            let due: Vec<u64> = state
                .entries
                .iter()
                .filter(|(_, e)| e.deadline <= now)
                .map(|(id, _)| *id)
                .collect();
            for id in due {
                let (job, ctl, reschedule) = {
                    let entry = state.entries.get_mut(&id).expect("due entry exists");
                    let job = Arc::clone(&entry.job);
                    let ctl = entry.ctl.clone();
                    let reschedule = match entry.period {
                        Some(period) => {
                            entry.deadline = now + period;
                            true
                        }
                        None => false,
                    };
                    (job, ctl, reschedule)
                };
                if !reschedule {
                    state.entries.remove(&id);
                }
                Self::fire(pool, &job, &ctl);
            }
            let next = state.entries.values().map(|e| e.deadline).min();
            state = match next {
                None => shared
                    .changed
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if deadline <= now {
                        continue;
                    }
                    shared
                        .changed
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }
}

impl Drop for TimerWheel {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
            state.entries.clear();
        }
        self.shared.changed.notify_all();
        if let Some(thread) = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = thread.join();
        }
    }
}

/// Handle to a periodic timer entry; see [`Runtime::schedule_periodic`].
///
/// `cancel()` is prompt (it does not sleep out the remaining period)
/// and waits for an in-flight firing to finish, so after it returns the
/// job is guaranteed not running and never will again. Dropping the
/// handle cancels without waiting.
pub struct TimerTask {
    id: u64,
    wheel: Arc<TimerShared>,
    ctl: Arc<TimerCtl>,
}

impl std::fmt::Debug for TimerTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerTask").field("id", &self.id).finish()
    }
}

impl TimerTask {
    /// Remove the entry from the wheel and wait until any in-flight
    /// firing has finished. Idempotent.
    pub fn cancel(&self) {
        self.ctl.cancelled.store(true, Ordering::Release);
        {
            let mut state = self.wheel.state.lock().unwrap_or_else(|e| e.into_inner());
            state.entries.remove(&self.id);
        }
        self.wheel.changed.notify_all();
        let mut state = self.ctl.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.0 || state.1 > 0 {
            state = self.ctl.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for TimerTask {
    fn drop(&mut self) {
        // Cancel without waiting: an in-flight firing only holds the
        // job closure alive a moment longer.
        self.ctl.cancelled.store(true, Ordering::Release);
        let mut state = self.wheel.state.lock().unwrap_or_else(|e| e.into_inner());
        state.entries.remove(&self.id);
        drop(state);
        self.wheel.changed.notify_all();
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

struct SerialInner {
    work: Mutex<Box<dyn FnMut() + Send>>,
    state: Mutex<SerialState>,
    idle: Condvar,
}

impl SerialInner {
    /// One pool-job pass: run the closure, then either reschedule (a
    /// notify arrived mid-run) or go idle. Re-enqueueing instead of
    /// looping keeps one chatty task from monopolising a worker.
    fn run(this: &Arc<SerialInner>, pool: &Arc<WorkerPool>) {
        {
            let mut state = this.state.lock().unwrap_or_else(|e| e.into_inner());
            state.scheduled = false;
            state.running = true;
        }
        // Release `running` even if the closure panics (the pool
        // catches the unwind); otherwise the task would wedge forever.
        struct Finish<'a>(&'a Arc<SerialInner>, &'a Arc<WorkerPool>);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
                state.running = false;
                if state.rerun {
                    state.rerun = false;
                    state.scheduled = true;
                    drop(state);
                    let inner = Arc::clone(self.0);
                    let pool = Arc::clone(self.1);
                    self.1.execute(move || SerialInner::run(&inner, &pool));
                } else {
                    drop(state);
                    self.0.idle.notify_all();
                }
            }
        }
        let _finish = Finish(this, pool);
        (this.work.lock().unwrap_or_else(|e| e.into_inner()))();
    }

    fn notify(this: &Arc<SerialInner>, pool: &Arc<WorkerPool>) {
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
        let pool_for_job = Arc::clone(pool);
        pool.execute(move || SerialInner::run(&inner, &pool_for_job));
    }
}

/// A serialized task on the runtime: a `FnMut` that is never run
/// concurrently with itself. [`SerialTask::notify`] schedules a run;
/// notifies arriving while a run is in progress coalesce into exactly
/// one follow-up run. This is the actor-style discipline the dedicated
/// per-component threads (durability writer, lint fold) migrated onto.
pub struct SerialTask {
    inner: Arc<SerialInner>,
    pool: Arc<WorkerPool>,
}

impl std::fmt::Debug for SerialTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SerialTask").finish()
    }
}

impl SerialTask {
    /// Schedule a run (coalesced; see the type docs).
    pub fn notify(&self) {
        SerialInner::notify(&self.inner, &self.pool);
    }

    /// Block until no run is scheduled or in progress. A concurrent
    /// `notify` can of course schedule a new run right after.
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

    /// A weak handle for wakeups from timer callbacks (breaks the
    /// `Arc` cycle a timer job capturing its own task would form).
    pub fn downgrade(&self) -> WeakSerialTask {
        WeakSerialTask {
            inner: Arc::downgrade(&self.inner),
            pool: Arc::downgrade(&self.pool),
        }
    }
}

/// Weak counterpart of [`SerialTask`]; `notify` is a no-op once the
/// task (or its runtime) is gone.
#[derive(Clone)]
pub struct WeakSerialTask {
    inner: Weak<SerialInner>,
    pool: Weak<WorkerPool>,
}

impl WeakSerialTask {
    pub fn notify(&self) {
        if let (Some(inner), Some(pool)) = (self.inner.upgrade(), self.pool.upgrade()) {
            SerialInner::notify(&inner, &pool);
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// The shared background runtime: one bounded worker pool, one timer
/// wheel, one [`RuntimeHealth`] channel. Components "rent" capacity —
/// the durability writer and lint fold as [`SerialTask`]s, the replica
/// daemon and compaction triggers as timer entries, parallel restore as
/// `scatter` batches — so a node hosting dozens of federated sources
/// runs on one fixed set of threads instead of a thread per component.
///
/// Dropping the last `Arc<Runtime>` shuts down the wheel first (no new
/// firings), then the pool (queued jobs drain, workers join).
pub struct Runtime {
    // Field order is drop order: the wheel must stop scheduling onto
    // the pool before the pool joins its workers.
    timers: TimerWheel,
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
        let pool = Arc::new(WorkerPool::named(prefix, threads));
        Arc::new(Runtime {
            timers: TimerWheel::new(Arc::clone(&pool)),
            pool,
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

    /// Enqueue one fire-and-forget job on the pool.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.pool.execute(job);
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

    /// Publish the pool's counters on the health channel as
    /// `component` (dashboards poll this alongside tenant reports).
    pub fn report_pool_health(&self, component: &str) {
        self.health
            .report(component, HealthReport::Pool(self.pool.stats()));
    }

    /// A serialized task on this runtime's pool; see [`SerialTask`].
    pub fn serial_task(&self, work: impl FnMut() + Send + 'static) -> SerialTask {
        SerialTask {
            inner: Arc::new(SerialInner {
                work: Mutex::new(Box::new(work)),
                state: Mutex::new(SerialState {
                    scheduled: false,
                    running: false,
                    rerun: false,
                }),
                idle: Condvar::new(),
            }),
            pool: Arc::clone(&self.pool),
        }
    }

    /// Run `job` every `period`, starting one `period` from now. Each
    /// firing runs on the pool; a firing that is still running when the
    /// next deadline arrives is skipped (coalesced), so a slow tenant
    /// lags rather than stacks. The returned [`TimerTask`] cancels
    /// promptly; dropping it cancels without waiting.
    pub fn schedule_periodic(
        &self,
        period: Duration,
        job: impl Fn() + Send + Sync + 'static,
    ) -> TimerTask {
        let job: TimerJob = Arc::new(job);
        let ctl = TimerCtl::new();
        let id = self.timers.insert(TimerEntry {
            deadline: Instant::now() + period,
            period: Some(period),
            job,
            ctl: Some(Arc::clone(&ctl)),
        });
        TimerTask {
            id,
            wheel: Arc::clone(&self.timers.shared),
            ctl,
        }
    }

    /// Run `job` once, `delay` from now, detached (no handle; runtime
    /// shutdown before the deadline drops the job silently).
    pub fn schedule_once(&self, delay: Duration, job: impl FnOnce() + Send + 'static) {
        // The wheel stores `Fn` jobs; a one-shot fires at most once, so
        // smuggle the `FnOnce` through an Option.
        let job = Mutex::new(Some(job));
        self.timers.insert(TimerEntry {
            deadline: Instant::now() + delay,
            period: None,
            job: Arc::new(move || {
                if let Some(job) = job.lock().unwrap_or_else(|e| e.into_inner()).take() {
                    job();
                }
            }),
            ctl: None,
        });
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

    #[test]
    fn periodic_timer_fires_and_cancels_promptly() {
        let runtime = Runtime::new(2);
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        let task = runtime.schedule_periodic(Duration::from_millis(5), move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while fired.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(fired.load(Ordering::SeqCst) >= 3, "timer fires repeatedly");
        let start = Instant::now();
        task.cancel();
        assert!(start.elapsed() < Duration::from_secs(1), "cancel is prompt");
        let after = fired.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            after,
            "no firings after cancel"
        );
    }

    #[test]
    fn one_shot_timer_fires_once() {
        let runtime = Runtime::new(1);
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        runtime.schedule_once(Duration::from_millis(3), move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while fired.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
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
        let task = runtime.serial_task(move || {
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
        let task = runtime.serial_task(move || {
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
                "writer",
                HealthReport::Pipeline {
                    enqueued: i,
                    durable: i,
                    dropped: 0,
                    backpressure_waits: 0,
                    fsyncs: 0,
                    group_commits: 0,
                    window_micros: 0,
                    queue_len: 0,
                    error: None,
                },
            );
        }
        health.report(
            "daemon",
            HealthReport::Daemon {
                polls: 1,
                events_applied: 0,
                rebases_detected: 0,
                error: None,
            },
        );
        let latest = health.latest("writer").expect("writer reported");
        assert_eq!(latest.seq, 300);
        assert_eq!(health.latest_all().len(), 2);
        let drained = health.drain();
        assert_eq!(drained.len(), HEALTH_BACKLOG, "backlog is bounded");
        assert!(health.drain().is_empty(), "drain empties the backlog");
    }

    #[test]
    fn health_sink_pushes_outside_lock() {
        let health = Arc::new(RuntimeHealth::new());
        let seen = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&seen);
        let probe = Arc::clone(&health);
        health.set_sink(Some(Arc::new(move |entry: &ComponentHealth| {
            counter.fetch_add(1, Ordering::SeqCst);
            // Re-entering the channel from the sink must not deadlock.
            let _ = probe.latest(&entry.component);
        })));
        health.report(
            "lint",
            HealthReport::Lint {
                checks_run: 1,
                entries_with_diagnostics: 0,
            },
        );
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn runtime_drop_from_pool_job_does_not_self_join() {
        // A detached job can end up holding the last Arc<Runtime>; when
        // it finishes, Drop runs *on a worker thread* and must not try
        // to join that same thread.
        let runtime = Runtime::new(2);
        let held = Arc::clone(&runtime);
        let (tx, rx) = mpsc::channel::<()>();
        runtime.execute(move || {
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
