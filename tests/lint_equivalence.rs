//! Lint equivalence, property-tested: for any random mutation script,
//! the incremental diagnostics — the synchronous [`Linter`] fed the
//! event stream, and the threaded [`LawChecker`] subscribed to the bus —
//! equal a cold [`full_check`] over the resulting snapshot. The same
//! invariant holds through a replica's life (torn log tails, checkpoint
//! re-bases) and across a federation where one source ships a
//! law-violating entry. Plus the scale acceptance: at ~10k entries an
//! incremental re-check per event is ≥ 50× faster than the cold check
//! (run under `--release` with the other timing-sensitive suites).

use std::sync::Arc;

use bx::core::curation::EntryStatus;
use bx::core::event::{apply_event, EntryDelta, EventSink, RepoEvent};
use bx::core::replica::{Federation, SourceId};
use bx::core::repo::{EntryRecord, RepositorySnapshot};
use bx::core::storage::{EventLogBackend, StorageBackend};
use bx::core::template::{Artefact, ArtefactKind};
use bx::core::{EntryId, ExampleEntry, ExampleType, HealthReport, Principal, Repository, Runtime};
use bx::lint::{full_check, CheckCatalog, LawChecker, LintLaw, Linter, Severity};
use bx_testkit::federation::{catch_up_clean, open_replica};
use bx_testkit::ops::{apply_op, arb_ops, scripted_repository, unique_temp_dir, valid_entry};
use proptest::prelude::*;

fn empty_catalog() -> Arc<CheckCatalog> {
    Arc::new(CheckCatalog::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The synchronous incremental linter agrees with the cold full
    /// check at every intermediate point of the script, not just at the
    /// end.
    #[test]
    fn linter_apply_equals_full_check(ops in arb_ops(24)) {
        let repo = scripted_repository();
        repo.drain_events(); // founding cast is already in the snapshot
        let mut linter = Linter::new(repo.snapshot(), empty_catalog());
        for op in &ops {
            apply_op(&repo, op);
            for event in repo.drain_events() {
                linter.apply(&event);
            }
            prop_assert_eq!(
                linter.diagnostics(),
                &full_check(&repo.snapshot(), &CheckCatalog::new())
            );
        }
    }

    /// The live engine, subscribed to the bus with backfill, converges
    /// to the cold check after every op once its workers go idle.
    #[test]
    fn law_checker_on_the_bus_equals_full_check(ops in arb_ops(24)) {
        let repo = scripted_repository();
        let checker = Arc::new(LawChecker::on_runtime(empty_catalog(), &Runtime::new(2), "lint"));
        // Backfill delivers the founding history the checker missed.
        repo.subscribe_with_backfill(checker.clone());
        for op in &ops {
            apply_op(&repo, op);
            checker.wait_idle();
            prop_assert_eq!(
                checker.diagnostics(),
                full_check(&repo.snapshot(), &CheckCatalog::new())
            );
        }
    }

    /// A checker riding a replica stays equivalent through torn tails
    /// (ignored until the writer repairs them) and checkpoint crossings
    /// (a re-base, delivered to the sink as `rebased`).
    #[test]
    fn replica_lint_survives_torn_tails_and_rebases(ops in arb_ops(16)) {
        let dir = unique_temp_dir("lint-replica");
        let repo = scripted_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&repo.drain_events()).unwrap();

        let mut replica = open_replica(&dir).unwrap();
        let checker = Arc::new(LawChecker::on_runtime(empty_catalog(), &Runtime::new(2), "lint"));
        replica.subscribe(checker.clone());

        let mid = ops.len() / 2;
        for op in &ops[..mid] {
            apply_op(&repo, op);
            backend.record(&repo.drain_events()).unwrap();
            catch_up_clean(&mut replica);
        }

        // A torn append lands (a crashed writer): the replica must not
        // consume it, and the diagnostics must still match the intact
        // prefix the replica actually holds.
        let log = dir.join("events-0.jsonl");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("{\"Commented\":{\"id\":\"co");
        std::fs::write(&log, text).unwrap();
        catch_up_clean(&mut replica);
        checker.wait_idle();
        prop_assert_eq!(
            checker.diagnostics(),
            full_check(replica.snapshot(), &CheckCatalog::new())
        );

        // The writer reopens (repairing the tail), finishes the script,
        // and checkpoints — forcing the replica to re-base.
        let mut backend = EventLogBackend::open(&dir).unwrap();
        for op in &ops[mid..] {
            apply_op(&repo, op);
            backend.record(&repo.drain_events()).unwrap();
        }
        backend.checkpoint(&repo.snapshot()).unwrap();
        let progress = catch_up_clean(&mut replica);
        prop_assert_eq!(progress.rebases, 1, "the checkpoint forces a re-base");
        checker.wait_idle();
        prop_assert_eq!(replica.snapshot(), &repo.snapshot());
        prop_assert_eq!(
            checker.diagnostics(),
            full_check(replica.snapshot(), &CheckCatalog::new())
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An entry that fails template validation, as a foreign (unvalidated)
/// event log would carry it — `contribute` on a healthy primary refuses
/// it, so it must be injected at the storage layer.
fn violating_entry(title: &str) -> ExampleEntry {
    ExampleEntry::builder(title)
        .of_type(ExampleType::Precise)
        // no overview — validate() flags it
        .models("M.")
        .consistency("C.")
        .restoration("F.", "B.")
        .discussion("D.")
        .author("mallory")
        .build_unchecked()
}

/// A federation with one healthy source and one source whose log ships
/// law-violating entries: the merged diagnostics pin the violation to
/// the namespaced id, stay clean for the healthy source, and equal the
/// cold check over the merged snapshot — both for a violation present
/// before subscription (backfilled via `rebased`) and for one arriving
/// afterwards (pushed via `accept`).
#[test]
fn federation_lint_flags_the_violating_source() {
    let dir_a = unique_temp_dir("lint-fed-a");
    let dir_b = unique_temp_dir("lint-fed-b");

    // Source a: a healthy primary using the validated workflow.
    let a = Repository::found("alpha", vec![Principal::curator("curator")]);
    a.register(Principal::member("alice")).unwrap();
    a.contribute("alice", valid_entry("COMPOSERS", "Clean."))
        .unwrap();
    let mut backend_a = EventLogBackend::open(&dir_a).unwrap();
    backend_a.record(&a.drain_events()).unwrap();

    // Source b: a log that never went through `contribute` validation.
    let mut backend_b = EventLogBackend::open(&dir_b).unwrap();
    backend_b
        .record(&[RepoEvent::Contributed(EntryDelta {
            id: EntryId::from_title("BROKEN"),
            entry: violating_entry("BROKEN"),
        })])
        .unwrap();

    let mut federation = Federation::open(
        "fed",
        vec![
            (SourceId::new("a"), dir_a.clone()),
            (SourceId::new("b"), dir_b.clone()),
        ],
    )
    .unwrap();
    let checker = Arc::new(LawChecker::on_runtime(
        empty_catalog(),
        &Runtime::new(2),
        "lint",
    ));
    federation.subscribe(checker.clone());
    checker.wait_idle();

    let broken = EntryId("b/broken".to_string());
    let diagnostics = checker.diagnostics();
    assert!(
        diagnostics
            .diagnostics_of(&broken)
            .iter()
            .any(|d| d.law == LintLaw::TemplateWellFormed && d.severity == Severity::Error),
        "the backfilled violation is pinned to the namespaced id:\n{}",
        diagnostics.report()
    );
    assert!(
        diagnostics
            .diagnostics_of(&EntryId("a/composers".to_string()))
            .is_empty(),
        "the healthy source stays clean"
    );
    assert_eq!(
        diagnostics,
        full_check(federation.snapshot(), &CheckCatalog::new())
    );

    // A second violation *arrives* from source b after subscription.
    backend_b
        .record(&[RepoEvent::Contributed(EntryDelta {
            id: EntryId::from_title("ALSO BROKEN"),
            entry: violating_entry("ALSO BROKEN"),
        })])
        .unwrap();
    federation.catch_up().unwrap();
    checker.wait_idle();
    let diagnostics = checker.diagnostics();
    assert!(!diagnostics
        .diagnostics_of(&EntryId("b/also-broken".to_string()))
        .is_empty());
    assert_eq!(diagnostics.error_count(), 2);
    assert_eq!(
        diagnostics,
        full_check(federation.snapshot(), &CheckCatalog::new())
    );

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// An entry whose artefact is a lens check that panics when run.
fn poisoned_entry(title: &str) -> ExampleEntry {
    let mut entry = valid_entry(title, "Poisoned.");
    entry.artefacts.push(Artefact {
        name: "boom".to_string(),
        kind: ArtefactKind::Code,
        location: "lint::panic_lens".to_string(),
    });
    entry
}

/// A panicking check costs only its own entry: `wait_idle` returns, the
/// pool counts the panic, and every other dirty entry — before and after
/// the poisoned one, across several bounded runs of the checker's task,
/// on the re-base path and the event path — lands on the cold check's
/// findings.
#[test]
fn a_panicking_check_loses_only_its_own_entry() {
    let runtime = Runtime::new(2);
    let mut catalog = CheckCatalog::new();
    catalog.register_lens_check("lint::panic_lens", || panic!("injected lint panic"));
    let checker = Arc::new(LawChecker::on_runtime(Arc::new(catalog), &runtime, "lint"));

    // More entries than one run checks; every seventh violates the
    // template; a block in the middle of the id order is poisoned, so
    // some run of the task starts on a check that panics.
    let mut base = scripted_repository().snapshot();
    for i in 0..200 {
        let title = format!("ENTRY-{i:03}");
        let entry = match i {
            100..=103 => poisoned_entry(&title),
            i if i % 7 == 0 => violating_entry(&title),
            _ => valid_entry(&title, "Generated."),
        };
        base.records.insert(
            EntryId::from_title(&title),
            EntryRecord {
                status: EntryStatus::Provisional,
                history: vec![entry],
            },
        );
    }
    checker.rebased(&base);
    checker.wait_idle();
    let mut poisoned: Vec<EntryId> = (100..=103)
        .map(|i| EntryId::from_title(&format!("ENTRY-{i}")))
        .collect();
    poisoned.push(EntryId::from_title("ADDED-1"));
    let assert_unstranded = |state: &RepositorySnapshot| {
        let expected = full_check(state, &CheckCatalog::new());
        assert!(expected.error_count() > 2, "the script plants violations");
        for id in state.records.keys().filter(|id| !poisoned.contains(id)) {
            assert_eq!(
                checker.diagnostics_of(id),
                expected.diagnostics_of(id),
                "{id:?} was stranded"
            );
        }
    };
    assert_unstranded(&base);

    // The event path: a second poisoned entry between two violations.
    let mut state = base.clone();
    for (title, entry) in [
        ("ADDED-0", violating_entry("ADDED-0")),
        ("ADDED-1", poisoned_entry("ADDED-1")),
        ("ADDED-2", violating_entry("ADDED-2")),
    ] {
        let event = RepoEvent::Contributed(EntryDelta {
            id: EntryId::from_title(title),
            entry,
        });
        apply_event(&mut state, &event);
        checker.accept(&event);
    }
    checker.wait_idle();
    assert_unstranded(&state);
    // `wait_idle` can return while the pool is still counting the last
    // unwind; let it settle.
    let settle = std::time::Instant::now();
    while runtime.pool_stats().panics_caught < 5
        && settle.elapsed() < std::time::Duration::from_secs(5)
    {
        std::thread::yield_now();
    }
    assert_eq!(
        runtime.pool_stats().panics_caught,
        5,
        "one per poisoned check"
    );
    // Each panic is published as it unwinds, naming its entry; the
    // checks that returned published nothing.
    let mut panicked: Vec<String> = runtime
        .health()
        .drain()
        .into_iter()
        .map(|report| {
            assert_eq!(report.component, "lint");
            match report.report {
                HealthReport::CheckPanicked { entry } => entry,
                other => panic!("the checker published {other:?}"),
            }
        })
        .collect();
    panicked.sort();
    let mut expected: Vec<String> = poisoned.iter().map(ToString::to_string).collect();
    expected.sort();
    assert_eq!(panicked, expected);
}

/// The scale acceptance (release builds only — it rides in CI with the
/// other timing-sensitive suites): at ~10k entries, folding one event
/// incrementally is ≥ 50× faster than a cold full check, while landing
/// on the identical diagnostics.
#[test]
fn lint_at_10k_entries_incremental_is_50x_faster_than_full() {
    if cfg!(debug_assertions) {
        return; // meaningless without optimizations; CI runs --release
    }
    const SCALE: usize = 10_000;
    const STANDARD: usize = 13; // entries standard_repository() starts with
    let repo = bx_bench::scaled_repository(SCALE - STANDARD);
    repo.drain_events();
    let snapshot = repo.snapshot();
    assert_eq!(snapshot.records.len(), SCALE);
    let catalog = Arc::new(bx::lint::standard_catalog());

    let started = std::time::Instant::now();
    let full = full_check(&snapshot, &catalog);
    let full_time = started.elapsed();
    assert!(full.is_clean(), "the scaled corpus lints clean");

    let mut linter = Linter::new(snapshot.clone(), catalog.clone());
    for i in 0..32usize {
        let id = EntryId::from_title(&format!("SYNTH-{:05}", (i * 131) % (SCALE - STANDARD)));
        let mut entry = repo.latest(&id).expect("synthetic entry exists");
        entry.discussion = format!("lint scale revision {i}");
        repo.revise("bench-bot", &id, entry)
            .expect("author revises");
    }
    let events = repo.drain_events();
    let started = std::time::Instant::now();
    for event in &events {
        linter.apply(event);
    }
    let per_event = started.elapsed() / events.len() as u32;

    assert_eq!(
        linter.diagnostics(),
        &full_check(&repo.snapshot(), &catalog),
        "incremental ≡ full at scale"
    );
    assert!(
        full_time >= per_event * 50,
        "expected ≥ 50× speedup; full check {full_time:?} vs {per_event:?} per event"
    );
}
