//! Federation fault tolerance under chaos: random per-source fault
//! plans (vanish/reappear, corrupt frames, flaky writers) against the
//! supervision layer. The invariants:
//!
//! * **healthy sources always converge** to [`federate_snapshots`] no
//!   matter how sick their peers are — a failing source surfaces a typed
//!   error in the catch-up outcome, never an abort;
//! * a quarantined source **recovers** — vanished directories resume
//!   their tail from the last good position once restored, and corrupt
//!   sources reopen from their intact prefix under
//!   [`RecoveryPolicy::SalvagePrefix`] with a [`SalvageReport`] on the
//!   record (and on the runtime health channel);
//! * **backoff bounds the poll cost** of a permanently dead source.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bx::core::index::SearchIndex;
use bx::core::replica::{federate_snapshots, DaemonConfig, Federation, ReplicaDaemon, SourceId};
use bx::core::repo::RepositorySnapshot;
use bx::core::storage::{EventLogBackend, StorageBackend};
use bx::core::wiki_bx::WikiBx;
use bx::core::{
    HealthReport, RecoveryPolicy, RepoError, RetryPolicy, Runtime, RuntimeHealth, SourceHealth,
};
use bx::theory::Bx;
use bx_testkit::faults::{
    corrupt_append, corrupt_append_binary, restore_dir, vanish_dir, FlakyBackend,
};
use bx_testkit::federation::{drive_federation, FederationScript, SourcePlan};
use bx_testkit::ops::{apply_op, arb_ops, scripted_repository, unique_temp_dir, RepoOp};
use proptest::prelude::*;

fn source_ids() -> [SourceId; 3] {
    [SourceId::new("a"), SourceId::new("b"), SourceId::new("c")]
}

fn dirs(tag: &str) -> Vec<PathBuf> {
    ["a", "b", "c"]
        .iter()
        .map(|s| unique_temp_dir(&format!("{tag}-{s}")))
        .collect()
}

fn plain_plan(ops: Vec<RepoOp>) -> SourcePlan {
    SourcePlan {
        ops,
        compaction: None,
        kill_after_events: None,
        torn_tail: false,
        binary: false,
    }
}

fn single_script(ops: Vec<RepoOp>) -> FederationScript {
    FederationScript {
        sources: vec![plain_plan(ops)],
        schedule: Vec::new(),
    }
}

fn open_federation(dirs: &[PathBuf]) -> Federation {
    let pairs = source_ids().into_iter().zip(dirs.iter().cloned()).collect();
    Federation::open("fed", pairs).expect("federation opens")
}

/// The merged state the federation must hold, given per-source folds.
fn spec(expected: &[RepositorySnapshot]) -> RepositorySnapshot {
    let pairs: Vec<_> = source_ids()
        .into_iter()
        .zip(expected.iter().cloned())
        .collect();
    federate_snapshots("fed", &pairs)
}

fn assert_converged(federation: &Federation, expected: &[RepositorySnapshot]) {
    let merged = spec(expected);
    assert_eq!(federation.snapshot(), &merged, "merged snapshot");
    assert_eq!(
        federation.index(),
        &SearchIndex::build(&merged),
        "merged index"
    );
    assert!(
        WikiBx::new().consistent(&merged, federation.site()),
        "merged wiki pages render the per-source folds"
    );
}

/// A supervision-friendly policy: no backoff (every pass polls every
/// source, keeping the test deterministic) but instant quarantine, so
/// the salvage gate opens on the first corruption.
fn eager_policy() -> RetryPolicy {
    RetryPolicy {
        quarantine_after: 1,
        ..RetryPolicy::immediate()
    }
}

/// One source's randomly drawn misfortune for a chaos round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Writes round two normally.
    Healthy,
    /// Directory vanishes and stays gone until the final repair.
    VanishForever,
    /// Directory vanishes, then reappears mid-chaos (with new writes).
    VanishThenReappear,
    /// A complete-but-unparseable line lands after round two's durable
    /// writes — the reader must not apply anything past it.
    CorruptFrame,
    /// The primary's writer suffers transient IO faults: whole batches
    /// drop, then the writer recovers — readers see a stall, no error.
    FlakyWriter,
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::Healthy),
        Just(Fault::VanishForever),
        Just(Fault::VanishThenReappear),
        Just(Fault::CorruptFrame),
        Just(Fault::FlakyWriter),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline chaos property: random scripts, random fault plans,
    /// and the healthy subset of a 3-source federation still converges
    /// to [`federate_snapshots`] over (healthy durable folds + sick
    /// sources' last good folds); after repair, everyone reconverges.
    #[test]
    fn healthy_sources_converge_regardless_of_sick_peers(
        round_one in (arb_ops(10), arb_ops(10), arb_ops(10)),
        round_two in (arb_ops(6), arb_ops(6), arb_ops(6)),
        fault_plan in (arb_fault(), arb_fault(), arb_fault()),
        flaky_failures in 1usize..4,
    ) {
        let dirs = dirs("chaos");
        let ids = source_ids();
        let faults = [fault_plan.0, fault_plan.1, fault_plan.2];
        let round_two = [round_two.0, round_two.1, round_two.2];

        // Round one: fault-free interleaved drive, then a clean open.
        // Every source opens with one guaranteed contribution: a source
        // with no durable history at all reads as "not written yet", and
        // a vanished empty directory would be indistinguishable from it.
        let seeded = |mut ops: Vec<RepoOp>, title: &str| {
            ops.insert(0, contribute(title));
            ops
        };
        let last_good = drive_federation(&dirs, &FederationScript {
            sources: vec![
                plain_plan(seeded(round_one.0, "SEED-A")),
                plain_plan(seeded(round_one.1, "SEED-B")),
                plain_plan(seeded(round_one.2, "SEED-C")),
            ],
            schedule: Vec::new(),
        });
        let mut federation = open_federation(&dirs);
        federation.set_retry_policy(eager_policy());
        assert_converged(&federation, &last_good);

        // Unleash the fault plans alongside round two's writes.
        let mut hidden: [Option<PathBuf>; 3] = [None, None, None];
        let mut expected = last_good.clone();
        for i in 0..3 {
            match faults[i] {
                Fault::Healthy => {
                    drive_federation(
                        std::slice::from_ref(&dirs[i]),
                        &single_script(round_two[i].clone()),
                    );
                    expected[i] = EventLogBackend::restore_dir(&dirs[i]).unwrap();
                }
                Fault::VanishForever | Fault::VanishThenReappear => {
                    hidden[i] = Some(vanish_dir(&dirs[i]).unwrap());
                    // Last good fold keeps serving.
                }
                Fault::CorruptFrame => {
                    drive_federation(
                        std::slice::from_ref(&dirs[i]),
                        &single_script(round_two[i].clone()),
                    );
                    let (_, generation) =
                        EventLogBackend::read_state_in(&dirs[i]).unwrap();
                    corrupt_append(&dirs[i].join(generation)).unwrap();
                    // The poll fails whole: nothing past the last good
                    // *tailed* state applies until salvage.
                    expected[i] = last_good[i].clone();
                }
                Fault::FlakyWriter => {
                    let repo = scripted_repository();
                    let mut writer =
                        FlakyBackend::new(EventLogBackend::open(&dirs[i]).unwrap());
                    writer.fail_next(flaky_failures);
                    for op in &round_two[i] {
                        apply_op(&repo, op);
                        // A dropped batch is lost whole — the durable
                        // fold below is the only truth.
                        let _ = writer.record(&repo.drain_events());
                    }
                    expected[i] = EventLogBackend::restore_dir(&dirs[i]).unwrap();
                }
            }
        }

        // Chaos pass: typed per-source errors, no abort, degraded serving.
        let outcome = federation.catch_up().unwrap();
        for i in 0..3 {
            match faults[i] {
                Fault::VanishForever | Fault::VanishThenReappear => {
                    prop_assert!(outcome.errors.iter().any(|(s, e)| s == &ids[i]
                        && matches!(e, RepoError::SourceUnavailable { .. })));
                }
                Fault::CorruptFrame => {
                    prop_assert!(outcome.errors.iter().any(|(s, e)| s == &ids[i]
                        && matches!(e, RepoError::CorruptFrame { .. })));
                }
                Fault::Healthy | Fault::FlakyWriter => {
                    prop_assert!(!outcome.errors.iter().any(|(s, _)| s == &ids[i]));
                }
            }
        }

        // Mid-chaos: the reappearing sources come back (and write more)
        // while the other faults stay live.
        for i in 0..3 {
            if faults[i] == Fault::VanishThenReappear {
                restore_dir(hidden[i].as_ref().unwrap(), &dirs[i]).unwrap();
                drive_federation(
                    std::slice::from_ref(&dirs[i]),
                    &single_script(round_two[i].clone()),
                );
                expected[i] = EventLogBackend::restore_dir(&dirs[i]).unwrap();
            }
        }
        for _ in 0..3 {
            federation.catch_up().unwrap();
        }
        assert_converged(&federation, &expected);
        for (i, (source, status)) in federation.source_status().iter().enumerate() {
            prop_assert_eq!(source, &ids[i]);
            match faults[i] {
                Fault::VanishForever | Fault::CorruptFrame => {
                    prop_assert_eq!(status.health, SourceHealth::Quarantined);
                }
                _ => prop_assert_eq!(status.health, SourceHealth::Healthy),
            }
        }

        // Repair: vanished directories return; corruption opts into
        // prefix salvage. One pass recovers everyone.
        for i in 0..3 {
            if faults[i] == Fault::VanishForever {
                restore_dir(hidden[i].as_ref().unwrap(), &dirs[i]).unwrap();
            }
        }
        federation.set_recovery_policy(RecoveryPolicy::SalvagePrefix);
        let outcome = federation.catch_up().unwrap();
        prop_assert!(outcome.errors.is_empty(), "everyone repaired: {:?}", outcome.errors);
        for i in 0..3 {
            if faults[i] == Fault::CorruptFrame {
                prop_assert!(
                    outcome.salvaged.iter().any(|(s, report)| s == &ids[i]
                        && report.bytes_dropped > 0),
                    "corruption recovery is never a silent skip"
                );
            }
        }

        // Full reconvergence to the durable folds — the salvaged sources
        // got their round-two prefix back, the vanished lost nothing.
        let repaired: Vec<RepositorySnapshot> = dirs
            .iter()
            .map(|dir| EventLogBackend::restore_dir(dir).unwrap())
            .collect();
        assert_converged(&federation, &repaired);
        for (_, status) in federation.source_status() {
            prop_assert_eq!(status.health, SourceHealth::Healthy);
        }

        // And a final healthy round converges for everyone.
        let final_folds = drive_federation(&dirs, &FederationScript {
            sources: vec![
                plain_plan(vec![contribute("ROUND-THREE-A")]),
                plain_plan(vec![contribute("ROUND-THREE-B")]),
                plain_plan(vec![contribute("ROUND-THREE-C")]),
            ],
            schedule: Vec::new(),
        });
        federation.catch_up().unwrap();
        assert_converged(&federation, &final_folds);

        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

fn contribute(title: &str) -> RepoOp {
    RepoOp::Contribute {
        title: title.into(),
        discussion: "Chaos round.".into(),
    }
}

/// An hour of backoff means a permanently dead source costs exactly one
/// failed poll, no matter how hot the catch-up loop runs — while the
/// healthy peer keeps converging.
#[test]
fn backoff_bounds_the_poll_cost_of_a_dead_source() {
    let dirs = vec![
        unique_temp_dir("dead-a"),
        unique_temp_dir("dead-b"),
        unique_temp_dir("dead-c"),
    ];
    drive_federation(
        &dirs,
        &FederationScript {
            sources: vec![
                plain_plan(vec![contribute("COMPOSERS")]),
                plain_plan(vec![contribute("DATES")]),
                plain_plan(vec![contribute("FAMILIES")]),
            ],
            schedule: Vec::new(),
        },
    );
    let mut federation = open_federation(&dirs);
    let polls_at_open = federation.source_status()[0].1.polls_attempted;
    federation.set_retry_policy(RetryPolicy {
        base: Duration::from_secs(3600),
        max: Duration::from_secs(3600),
        multiplier: 1,
        jitter_percent: 0,
        quarantine_after: 5,
        seed: 0,
    });

    let _tomb = vanish_dir(&dirs[0]).unwrap();
    let outcome = federation.catch_up().unwrap();
    assert_eq!(outcome.errors.len(), 1);

    // Fifty hot catch-up passes: the dead source is skipped every time,
    // and the healthy peers keep folding new writes.
    let mut skipped = 0;
    for round in 0..50 {
        if round == 25 {
            drive_federation(&dirs[1..2], &single_script(vec![contribute("MIDWAY")]));
        }
        let outcome = federation.catch_up().unwrap();
        assert!(
            outcome.errors.is_empty(),
            "the dead source is not re-polled"
        );
        skipped += outcome.skipped;
    }
    assert_eq!(skipped, 50);
    let status = &federation.source_status()[0].1;
    assert_eq!(
        status.polls_attempted,
        polls_at_open + 1,
        "exactly one failed poll, then backoff gates the rest"
    );
    assert_eq!(status.failures, 1);
    assert_eq!(federation.query(&["midway"]).len(), 1, "degraded serving");
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A source that keeps failing publishes only its transitions: each
/// degraded step and the quarantine, however many passes poll it after
/// that. Publishing every failed poll would let one dead source push
/// every other transition out of the channel's backlog.
#[test]
fn a_failing_source_publishes_only_its_health_changes() {
    let dirs = vec![unique_temp_dir("changes-a"), unique_temp_dir("changes-b")];
    drive_federation(
        &dirs,
        &FederationScript {
            sources: vec![
                plain_plan(vec![contribute("COMPOSERS")]),
                plain_plan(vec![contribute("DATES")]),
            ],
            schedule: Vec::new(),
        },
    );
    let pairs = source_ids().into_iter().zip(dirs.iter().cloned()).collect();
    let mut federation = Federation::open("fed", pairs).unwrap();
    let policy = RetryPolicy::immediate();
    federation.set_retry_policy(policy);
    let health = Arc::new(RuntimeHealth::new());
    federation.attach_runtime_health(&health, "fed");

    let hidden = vanish_dir(&dirs[0]).unwrap();
    for _ in 0..300 {
        federation.catch_up().unwrap();
    }
    let published: Vec<(String, String, u32)> = health
        .drain()
        .into_iter()
        .map(|entry| match entry.report {
            HealthReport::Source {
                source,
                state,
                consecutive_failures,
                ..
            } => (source, state, consecutive_failures),
            other => panic!("only source transitions were expected: {other:?}"),
        })
        .collect();
    let quarantine_after = policy.quarantine_after;
    let expected: Vec<(String, String, u32)> = (1..=quarantine_after)
        .map(|n| {
            let state = if n < quarantine_after {
                "degraded"
            } else {
                "quarantined"
            };
            ("a".to_string(), state.to_string(), n)
        })
        .collect();
    assert_eq!(published, expected);
    restore_dir(&hidden, &dirs[0]).unwrap();
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A reappeared source resumes its tail exactly where it stopped — new
/// events apply incrementally, with no re-base and no replay from zero.
#[test]
fn a_reappeared_source_resumes_its_tail_without_rebase() {
    let dirs = vec![
        unique_temp_dir("resume-a"),
        unique_temp_dir("resume-b"),
        unique_temp_dir("resume-c"),
    ];
    drive_federation(
        &dirs,
        &FederationScript {
            sources: vec![
                plain_plan(vec![contribute("COMPOSERS")]),
                plain_plan(vec![contribute("DATES")]),
                plain_plan(vec![contribute("FAMILIES")]),
            ],
            schedule: Vec::new(),
        },
    );
    let mut federation = open_federation(&dirs);
    federation.set_retry_policy(eager_policy());

    let hidden = vanish_dir(&dirs[0]).unwrap();
    federation.catch_up().unwrap();
    federation.catch_up().unwrap();
    assert_eq!(
        federation.source_status()[0].1.health,
        SourceHealth::Quarantined
    );

    restore_dir(&hidden, &dirs[0]).unwrap();
    drive_federation(&dirs[..1], &single_script(vec![contribute("ENCORE")]));
    let outcome = federation.catch_up().unwrap();
    assert!(outcome.errors.is_empty());
    let resumed = &outcome.per_source[0];
    assert!(resumed.events_applied > 0, "the new events flow");
    assert!(
        !resumed.rebased,
        "resumption continues the tail, it does not re-base"
    );
    let folds: Vec<RepositorySnapshot> = dirs
        .iter()
        .map(|dir| EventLogBackend::restore_dir(dir).unwrap())
        .collect();
    assert_converged(&federation, &folds);
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The acceptance path end to end, on a [`ReplicaDaemon`] tenant of a
/// shared runtime: one JSONL source and one *binary* source both rot,
/// quarantine, salvage under [`RecoveryPolicy::SalvagePrefix`], and the
/// [`SalvageReport`]s surface in the catch-up outcome and in
/// `Federation::source_status`, and the quarantines (with the
/// corruption's text) and recoveries as `HealthReport::Source` on the
/// runtime channel.
#[test]
fn quarantined_corrupt_sources_salvage_and_report_on_the_runtime_channel() {
    let dir_a = unique_temp_dir("salvage-chan-a");
    let dir_b = unique_temp_dir("salvage-chan-b");
    drive_federation(
        std::slice::from_ref(&dir_a),
        &single_script(vec![contribute("COMPOSERS")]),
    );
    drive_federation(
        std::slice::from_ref(&dir_b),
        &FederationScript {
            sources: vec![SourcePlan {
                ops: vec![contribute("UML2RDBMS")],
                compaction: None,
                kill_after_events: None,
                torn_tail: false,
                binary: true,
            }],
            schedule: Vec::new(),
        },
    );

    let mut federation = Federation::open(
        "fed",
        vec![
            (SourceId::new("a"), dir_a.clone()),
            (SourceId::new("b"), dir_b.clone()),
        ],
    )
    .unwrap();
    federation.set_retry_policy(eager_policy());
    federation.set_recovery_policy(RecoveryPolicy::SalvagePrefix);
    let clean = federation.snapshot().clone();

    // Rot both formats beyond their tailed prefixes.
    let (_, generation_a) = EventLogBackend::read_state_in(&dir_a).unwrap();
    corrupt_append(&dir_a.join(generation_a)).unwrap();
    let (_, generation_b) = EventLogBackend::read_state_in(&dir_b).unwrap();
    corrupt_append_binary(&dir_b, &generation_b).unwrap();

    let runtime = Runtime::new(2);
    let daemon = ReplicaDaemon::spawn_on(
        federation,
        DaemonConfig {
            // Effectively tick-free: passes below are forced, so the
            // salvage sequence stays deterministic.
            poll_interval: Duration::from_secs(3600),
        },
        &runtime,
        "fed",
    );

    // The spawn-time pass ran on this thread before `spawn_on` returned,
    // so no background pass races the forced ones below.
    assert_eq!(daemon.stats().polls, 1);

    // Quarantine, then salvage. The spawn-time pass may have consumed
    // either step already, so drive passes until both sources report a
    // completed salvage.
    let mut salvaged: Vec<SourceId> = Vec::new();
    for _ in 0..4 {
        let outcome = daemon.force_catch_up().unwrap();
        salvaged.extend(outcome.salvaged.iter().map(|(s, _)| s.clone()));
        if salvaged.len() >= 2 {
            break;
        }
    }
    assert_eq!(salvaged.len(), 2, "both formats salvage");

    // Degraded serving never blinked, and the salvage is on each
    // source's supervision record with both sources healthy again.
    for (source, status) in daemon.with_federation(|f| f.source_status()) {
        assert_eq!(status.health, SourceHealth::Healthy, "{source:?}");
        assert!(status.last_error.is_none(), "{source:?} recovered");
        let report = status.salvage.as_ref().expect("salvage on record");
        assert!(report.bytes_dropped > 0);
        assert!(report.truncated_at.is_some());
    }

    // The runtime channel saw each source's quarantine, attributed to
    // it with the corruption that caused it, and its salvaged recovery.
    let mut quarantined: Vec<String> = Vec::new();
    let mut salvaged_sources: Vec<String> = Vec::new();
    for entry in runtime.health().drain() {
        let HealthReport::Source {
            source,
            state,
            error,
            salvaged_bytes,
            ..
        } = entry.report
        else {
            panic!("only source transitions were expected: {entry:?}");
        };
        assert_eq!(entry.component, "fed");
        if state == "quarantined" {
            let error = error.expect("a failure transition carries its error");
            assert!(
                error.starts_with("corrupt frame in segment"),
                "{source}: {error}"
            );
            quarantined.push(source);
        } else if state == "healthy" && salvaged_bytes.is_some() {
            salvaged_sources.push(source);
        }
    }
    quarantined.sort();
    quarantined.dedup();
    salvaged_sources.sort();
    assert_eq!(quarantined, ["a", "b"], "both quarantines were published");
    assert_eq!(
        salvaged_sources,
        ["a", "b"],
        "both salvaged recoveries were published"
    );

    // The merged state never lost the pre-corruption prefix.
    let federation = daemon.into_federation();
    assert_eq!(federation.snapshot(), &clean);
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
