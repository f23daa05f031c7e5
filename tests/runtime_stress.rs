//! Runtime stress: every background tenant the workspace has — durability
//! writers, a federation's replica daemon, auto-compaction, the lint
//! engine — multiplexed onto ONE small shared [`Runtime`] pool, under
//! fault injection (a `CrashingBackend` fuse burns a writer out
//! mid-stream, a planted lint check panics on a pool worker). The pool
//! must survive both faults, every healthy tenant must converge, and no
//! tenant may starve another. A pool-churn loop guards runtime shutdown
//! against lost wakeups. Runs in the CI release test step.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bx::core::pipeline::{BackgroundWriter, PipelineConfig};
use bx::core::replica::{DaemonConfig, Federation, ReplicaDaemon, SourceId};
use bx::core::runtime::{ComponentHealth, HealthReport, Runtime};
use bx::core::storage::{
    AutoCompactingEventLog, CompactionPolicy, EventLogBackend, StorageBackend,
};
use bx::core::template::ArtefactKind;
use bx::core::{EntryId, Principal, RepoError, Repository, RetryPolicy};
use bx::lint::{CheckCatalog, LawChecker};
use bx_testkit::faults::CrashingBackend;
use bx_testkit::ops::unique_temp_dir;

fn entry(title: &str) -> bx::core::ExampleEntry {
    bx::core::ExampleEntry::builder(title)
        .of_type(bx::core::template::ExampleType::Precise)
        .overview("O.")
        .models("M.")
        .consistency("C.")
        .restoration("F.", "B.")
        .discussion("D.")
        .author("alice")
        .build()
        .unwrap()
}

fn primary(name: &str) -> Repository {
    let r = Repository::found(name, vec![Principal::curator("c")]);
    r.register(Principal::member("alice")).unwrap();
    r
}

/// The headline scenario: writer + daemon + compaction + lint as tenants
/// of one two-worker pool, with a crashing backend and a panicking lint
/// check injected. Asserts (a) the pool survives both faults, (b) every
/// healthy tenant converges to its expected end state and its own
/// counters show progress on the shared pool — none starved another
/// out — and (c) the faults and checkpoints, and nothing else, land on
/// the unified channel.
#[test]
fn mixed_tenants_on_one_small_pool_survive_faults_and_converge() {
    let dir = unique_temp_dir("stress-writer");
    let crash_dir = unique_temp_dir("stress-crash");
    let runtime = Runtime::named("bx-stress", 2);

    // Tenant 1: a healthy group-commit writer into an auto-compacting
    // log that reports its compaction passes (tenant 2) on the channel.
    let mut backend = AutoCompactingEventLog::open(
        &dir,
        CompactionPolicy {
            checkpoint_every: 8,
        },
    )
    .unwrap();
    backend.set_observer(runtime.health(), "compaction");
    let writer = Arc::new(BackgroundWriter::on_runtime(
        backend,
        PipelineConfig {
            channel_capacity: 16,
            max_group_events: 4,
            group_commit_window: Duration::from_millis(2),
        },
        &runtime,
        "writer",
    ));

    // Tenant 3: a doomed writer whose backend burns out mid-stream.
    let doomed = Arc::new(BackgroundWriter::on_runtime(
        CrashingBackend::new(EventLogBackend::open(&crash_dir).unwrap(), 5),
        PipelineConfig {
            channel_capacity: 16,
            max_group_events: 4,
            ..PipelineConfig::default()
        },
        &runtime,
        "writer:crash",
    ));

    // Tenant 4: the lint engine, with a planted check that panics on the
    // pool worker that runs it.
    let mut catalog = CheckCatalog::new();
    catalog.register_lens_check("stress::panic_lens", || panic!("injected lint panic"));
    let checker = Arc::new(LawChecker::on_runtime(Arc::new(catalog), &runtime, "lint"));

    // Drive a primary through both writers and the checker.
    let repo = primary("bx");
    repo.subscribe(writer.clone());
    repo.subscribe(doomed.clone());
    repo.subscribe_with_backfill(checker.clone());

    let mut poisoned = entry("POISONED");
    poisoned.artefacts.push(bx::core::template::Artefact {
        name: "boom".to_string(),
        kind: ArtefactKind::Code,
        location: "stress::panic_lens".to_string(),
    });
    let titles = [
        "COMPOSERS",
        "UML2RDBMS",
        "DATES",
        "FAMILIES",
        "BIBTEX",
        "ASTS",
        "VIEWS",
        "SPREADSHEET",
    ];
    for title in titles {
        repo.contribute("alice", entry(title)).unwrap();
        repo.comment("alice", &EntryId::from_title(title), "2014-03-28", "stress")
            .unwrap();
    }
    repo.contribute("alice", poisoned).unwrap();

    // The lint panic is caught by the pool: wait_idle returns (the
    // panicked job still released its pending slot) and the pool's
    // workers survive to run everything below.
    checker.wait_idle();
    assert!(checker.checks_run() > 0, "healthy checks still fold");
    // wait_idle returns the moment the panicking job releases its
    // pending slot (mid-unwind); the worker bumps `panics_caught` an
    // instant later, once catch_unwind hands the payload back — settle.
    let settle = Instant::now();
    while runtime.pool_stats().panics_caught == 0 && settle.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    assert!(
        runtime.pool_stats().panics_caught >= 1,
        "the planted panic was caught, not fatal"
    );

    // The doomed writer surfaces its sticky injected error...
    let err = doomed.flush().unwrap_err();
    assert!(matches!(err, RepoError::Persist(ref m) if m.contains("injected crash")));
    assert!(doomed.shutdown().is_err());

    // ...while the healthy writer converges to full durability.
    writer.flush().unwrap();
    let event_count = writer.stats().enqueued;
    writer.shutdown().unwrap();
    assert_eq!(writer.stats().durable, event_count);

    // Tenant 5: a replica daemon federating the healthy directory, on
    // the same pool.
    let federation =
        Federation::open_on("fed", vec![(SourceId::new("a"), dir.clone())], &runtime).unwrap();
    let mut daemon = ReplicaDaemon::spawn_on(
        federation,
        DaemonConfig {
            poll_interval: Duration::from_millis(1),
        },
        &runtime,
        "daemon",
    );
    daemon.force_catch_up().unwrap();
    assert_eq!(
        daemon.with_federation(|f| f.snapshot().records.len()),
        titles.len() + 1, // the 8 clean entries plus POISONED
        "the daemon serves everything the writer made durable"
    );
    let daemon_stats = daemon.stop();

    // No tenant starved: each one's own counters show progress on the
    // shared pool.
    assert_eq!(writer.stats().durable, event_count);
    assert!(checker.checks_run() >= 1);
    assert!(daemon_stats.polls >= 1);
    // The channel carries the transitions: the crash, the checkpoints
    // and the panicking check. Healthy tenants published nothing.
    let health = runtime.health();
    let latest = |component: &str| {
        health
            .latest(component)
            .unwrap_or_else(|| panic!("`{component}` never reported"))
            .report
    };
    match latest("writer:crash") {
        HealthReport::WriterFailed { error } => assert!(
            error.contains("injected"),
            "the injected crash is visible on the channel: {error}"
        ),
        other => panic!("the crash writer reported {other:?}"),
    }
    match latest("compaction") {
        HealthReport::Compaction { checkpoints, .. } => assert!(checkpoints >= 1),
        other => panic!("compaction reported {other:?}"),
    }
    assert_eq!(
        latest("lint"),
        HealthReport::CheckPanicked {
            entry: "poisoned".to_string()
        }
    );
    for quiet in ["writer", "daemon"] {
        assert_eq!(health.latest(quiet), None, "`{quiet}` is healthy");
    }
    assert_eq!(runtime.pool_stats().threads, 2, "bounded: one small pool");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// The health channel carries transitions only, so a source's
/// quarantine stays visible however much steady work shares the
/// runtime: after 300 flushed commits and 300 daemon passes, each
/// re-checked by the law checker, it is still in the backlog and still
/// the daemon component's latest report. Steady commits, passes and
/// lint runs publish nothing at all.
#[test]
fn health_channel_keeps_a_quarantine_through_steady_traffic() {
    let live_dir = unique_temp_dir("transition-live");
    let lost_dir = unique_temp_dir("transition-lost");
    let runtime = Runtime::named("bx-transition", 2);

    // Source "a" is written live through a writer on the runtime, into
    // a log that never compacts; source "b" is written once and then
    // vanishes.
    let repo = primary("alpha");
    let writer = Arc::new(BackgroundWriter::on_runtime(
        EventLogBackend::open(&live_dir).unwrap(),
        PipelineConfig::default(),
        &runtime,
        "writer",
    ));
    repo.subscribe_with_backfill(writer.clone());
    writer.flush().unwrap();
    let lost = primary("beta");
    EventLogBackend::open(&lost_dir)
        .unwrap()
        .record(&lost.drain_events())
        .unwrap();
    let mut federation = Federation::open(
        "fed",
        vec![
            (SourceId::new("a"), live_dir.clone()),
            (SourceId::new("b"), lost_dir.clone()),
        ],
    )
    .unwrap();
    // The first failure quarantines, and no retry falls within the test.
    let hour = Duration::from_secs(3600);
    federation.set_retry_policy(RetryPolicy {
        base: hour,
        max: hour,
        quarantine_after: 1,
        ..RetryPolicy::default()
    });
    let checker = Arc::new(LawChecker::on_runtime(
        Arc::new(CheckCatalog::new()),
        &runtime,
        "lint",
    ));
    federation.subscribe(checker.clone());
    let mut daemon = ReplicaDaemon::spawn_on(
        federation,
        DaemonConfig {
            poll_interval: Duration::from_millis(5),
        },
        &runtime,
        "daemon",
    );

    std::fs::remove_dir_all(&lost_dir).unwrap();
    daemon.force_catch_up().unwrap();
    let is_quarantine = |entry: &ComponentHealth| {
        entry.component == "daemon"
            && matches!(
                &entry.report,
                HealthReport::Source { source, state, .. }
                    if source == "b" && state == "quarantined"
            )
    };

    // Each round commits an entry durably, then applies it at the
    // federation, whose law checker checks it.
    let mut round = 0;
    let mut steady = |rounds: usize| {
        for _ in 0..rounds {
            round += 1;
            repo.contribute("alice", entry(&format!("STEADY-{round}")))
                .unwrap();
            writer.flush().unwrap();
            assert_eq!(daemon.force_catch_up().unwrap().errors.len(), 0);
        }
        checker.wait_idle();
    };
    steady(300);
    assert!(writer.stats().fsyncs >= 300);
    assert!(daemon.stats().polls >= 300);
    assert!(checker.checks_run() >= 300);

    let latest = runtime.health().latest("daemon").expect("a transition");
    assert!(is_quarantine(&latest), "latest daemon report: {latest:?}");
    let drained = runtime.health().drain();
    assert!(
        drained.iter().any(is_quarantine),
        "the quarantine fell out of the backlog"
    );
    assert_eq!(drained.len(), 1, "only the quarantine: {drained:?}");

    steady(20);
    assert_eq!(runtime.health().drain(), []);
    assert_eq!(daemon.with_federation(|f| f.snapshot().records.len()), 320);

    daemon.stop();
    writer.shutdown().unwrap();
    std::fs::remove_dir_all(&live_dir).ok();
}

/// 64 federated sources cold-opened and then daemon-polled on ONE shared
/// pool: thread count stays bounded at the pool width, the merged state
/// matches the sequential open exactly, and stopping the daemon is
/// prompt. This is the test-suite twin of the `federation` bench's
/// shared-runtime rows.
#[test]
fn sixty_four_sources_cold_open_and_poll_on_one_shared_pool() {
    let mut sources = Vec::new();
    let mut dirs = Vec::new();
    for i in 0..64 {
        let dir = unique_temp_dir(&format!("stress-fed-{i}"));
        let r = primary(&format!("src{i}"));
        r.contribute("alice", entry(&format!("ENTRY{i}"))).unwrap();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        sources.push((SourceId::new(&format!("s{i}")), dir.clone()));
        dirs.push(dir);
    }

    let runtime = Runtime::named("bx-fed64", 4);
    let sequential = Federation::open("fed", sources.clone()).unwrap();
    let federation = Federation::open_on("fed", sources, &runtime).unwrap();
    assert_eq!(federation.snapshot(), sequential.snapshot());
    assert_eq!(federation.index(), sequential.index());
    assert_eq!(runtime.pool_stats().threads, 4, "64 sources, 4 workers");

    let mut daemon = ReplicaDaemon::spawn_on(
        federation,
        DaemonConfig {
            poll_interval: Duration::from_secs(5),
        },
        &runtime,
        "daemon",
    );
    let settle = Instant::now();
    while daemon.stats().polls == 0 && settle.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    let lag = daemon.with_federation(|f| f.lag());
    assert_eq!(lag.len(), 64);
    assert!(lag.iter().all(|(_, lag)| *lag == 0));
    // Prompt stop: cancelling a 5 s tick must not wait the interval out.
    let begin = Instant::now();
    daemon.stop();
    assert!(
        begin.elapsed() < Duration::from_millis(100),
        "stop waited {:?}",
        begin.elapsed()
    );

    // One source converted to the binary format on the same shared pool
    // round-trips its durable contents.
    let bin = unique_temp_dir("stress-fed-bin");
    bx::core::binlog::convert_log_dir_on(&dirs[0], &bin, true, &runtime).unwrap();
    let converted = bx::core::binlog::BinaryLogBackend::open(&bin).unwrap();
    let original = EventLogBackend::open(&dirs[0]).unwrap();
    assert_eq!(
        converted.restore().unwrap(),
        original.restore().unwrap(),
        "shared-pool conversion preserves the durable state"
    );

    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    std::fs::remove_dir_all(&bin).ok();
}

/// Regression: dropping a runtime set the pool's shutdown flag and
/// notified the workers without holding the queue lock, so a worker that
/// had just seen the flag unset missed the notify, slept forever, and
/// the drop hung in `join` (seen after a few thousand cycles). Churn
/// runtimes on helper threads and fail on a watchdog deadline instead of
/// hanging the suite. More churners than cores make it likely that some
/// worker is preempted between its check and its wait; against the
/// unfixed drop this loop stalled within its first 40k cycles in each
/// of three runs on a 2-core host.
#[test]
fn runtime_churn_never_hangs_on_drop() {
    const CHURNERS: usize = 4;
    const CYCLES: usize = 10_000;
    let completed = Arc::new(AtomicUsize::new(0));
    let (done, finished) = mpsc::channel();
    let mut churners = Vec::with_capacity(CHURNERS);
    for _ in 0..CHURNERS {
        let progress = Arc::clone(&completed);
        let done = done.clone();
        churners.push(std::thread::spawn(move || {
            for i in 0..CYCLES {
                // One job for two workers: the drop often lands while the
                // idle worker is still starting up.
                let runtime = Runtime::new(2);
                let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![Box::new(move || i)];
                assert_eq!(runtime.scatter(jobs), vec![i]);
                drop(runtime);
                progress.fetch_add(1, Ordering::Relaxed);
            }
            let _ = done.send(());
        }));
    }
    drop(done);
    let deadline = Instant::now() + Duration::from_secs(120);
    for _ in 0..CHURNERS {
        let outcome = finished.recv_timeout(deadline.saturating_duration_since(Instant::now()));
        assert!(
            outcome.is_ok(),
            "runtime churn ended ({outcome:?}) after {} of {} create/scatter/drop cycles",
            completed.load(Ordering::Relaxed),
            CHURNERS * CYCLES
        );
    }
    // Only reached when every churner finished: a stalled one is left
    // detached, since joining it would hang the suite.
    for churner in churners {
        churner.join().expect("churner finished cleanly");
    }
}
