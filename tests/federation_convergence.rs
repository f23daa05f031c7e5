//! Federation convergence, property-tested: a 3-primary federation over
//! random interleaved mutation scripts — with auto-compaction on one
//! source, a killed writer on another, and a torn final append on a
//! third — converges to exactly the per-source durable fold
//! ([`federate_snapshots`]) in all three materializations: merged
//! snapshot, search index, and rendered wiki pages. The daemon variant
//! checks the background polling thread serves the same state and stops
//! cleanly (no orphan thread).

use std::path::PathBuf;
use std::time::Duration;

use bx::core::index::SearchIndex;
use bx::core::replica::{federate_snapshots, DaemonConfig, Federation, ReplicaDaemon, SourceId};
use bx::core::wiki_bx::WikiBx;
use bx::core::{ManuscriptOptions, Runtime};
use bx::theory::Bx;
use bx_testkit::federation::{
    arb_federation_script, drive_federation, FederationScript, SourcePlan,
};
use bx_testkit::ops::{arb_ops, unique_temp_dir, RepoOp};
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

fn open_federation(dirs: &[PathBuf]) -> Federation {
    let pairs = source_ids().into_iter().zip(dirs.iter().cloned()).collect();
    Federation::open("fed", pairs).expect("federation opens")
}

/// The merged state the federation must hold, given the per-source
/// durable folds.
fn spec(expected: &[bx::core::repo::RepositorySnapshot]) -> bx::core::repo::RepositorySnapshot {
    let pairs: Vec<_> = source_ids()
        .into_iter()
        .zip(expected.iter().cloned())
        .collect();
    federate_snapshots("fed", &pairs)
}

fn assert_converged(federation: &Federation, expected: &[bx::core::repo::RepositorySnapshot]) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline acceptance property. Two driving rounds over the same
    /// three directories: the federation opens cold after round one
    /// (exercising the initial fold), then tails round two incrementally
    /// (exercising per-source re-base across compaction generations, the
    /// killed writer's durable-prefix gap, and torn-tail tolerance). A
    /// cold-opened federation must agree with the tailing one.
    #[test]
    fn federation_converges_over_interleaved_faulty_sources(
        // Fixed 3-tuples, not length-3 vecs: shrinking works on sampled
        // values, so a vec-of-scripts could truncate below three sources
        // and report a case the strategy contract never allows; tuple
        // components shrink individually with the arity intact.
        round_one in (arb_ops(12), arb_ops(12), arb_ops(12)),
        round_two in (arb_ops(12), arb_ops(12), arb_ops(12)),
        checkpoint_every in 1usize..6,
        kill_after in 0usize..12,
        schedule in prop::collection::vec(0usize..16, 1..32),
    ) {
        let dirs = dirs("fed-conv");
        let round_one = [round_one.0, round_one.1, round_one.2];
        let round_two = [round_two.0, round_two.1, round_two.2];
        let mut fault_free: Vec<SourcePlan> = round_one
            .iter()
            .map(|ops| SourcePlan {
                ops: ops.clone(),
                compaction: None,
                kill_after_events: None,
                torn_tail: false,
                binary: false,
            })
            .collect();
        // Source b writes the binary segmented format from round one on:
        // the federation must converge over a mixed-format source set.
        fault_free[1].binary = true;
        let expected_mid = drive_federation(
            &dirs,
            &FederationScript { sources: fault_free, schedule: schedule.clone() },
        );
        let mut federation = open_federation(&dirs);
        assert_converged(&federation, &expected_mid);

        // Round two: compaction on source a, a killed writer on source b,
        // a torn final append on source c — the acceptance fault mix.
        let mut plans: Vec<SourcePlan> = round_two
            .iter()
            .map(|ops| SourcePlan {
                ops: ops.clone(),
                compaction: None,
                kill_after_events: None,
                torn_tail: false,
                binary: false,
            })
            .collect();
        plans[0].compaction = Some(checkpoint_every);
        plans[1].kill_after_events = Some(kill_after);
        plans[1].binary = true; // the binary source takes the kill fault
        plans[2].torn_tail = true;
        let expected = drive_federation(
            &dirs,
            &FederationScript { sources: plans, schedule },
        );

        federation.catch_up().expect("all three directories are present");
        assert_converged(&federation, &expected);
        // Fully caught up: nothing durable is left unapplied. (Source c
        // legitimately reports its torn half-line as lag until a writer
        // heals it.)
        for ((source, lag), plan_torn) in
            federation.lag().into_iter().zip([false, false, true])
        {
            prop_assert!(
                lag == 0 || plan_torn,
                "source {source} lags {lag} bytes"
            );
        }

        // A federation opened cold over the same directories agrees with
        // the incrementally maintained one.
        let cold = open_federation(&dirs);
        prop_assert_eq!(cold.snapshot(), federation.snapshot());
        prop_assert_eq!(cold.index(), federation.index());
        assert_converged(&cold, &expected);

        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    /// Fault combinations the guaranteed-mix property above cannot reach
    /// — e.g. a killed writer on a *compacting* source (the restart path
    /// reopens an `AutoCompactingEventLog` mid-script), several faults
    /// at once, or none — sampled from the harness's own
    /// `arb_federation_script` strategy. Cold-open convergence to the
    /// per-source durable fold must hold for all of them.
    #[test]
    fn federation_converges_under_random_fault_plans(
        script in arb_federation_script(3, 10),
    ) {
        let dirs = dirs("fed-rand");
        let expected = drive_federation(&dirs, &script);
        let federation = open_federation(&dirs);
        assert_converged(&federation, &expected);
        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// The daemon serves a converging federation from its background thread,
/// surfaces serving reads under the poll lock, and stops cleanly — the
/// polling thread is joined, twice-stopping is a no-op, and the
/// federation comes back out for direct use.
#[test]
fn daemon_serves_and_stops_clean() {
    let dirs = dirs("fed-daemon");
    let contribute = |title: &str| RepoOp::Contribute {
        title: title.into(),
        discussion: "Served by the daemon.".into(),
    };
    let plans = vec![
        SourcePlan {
            ops: vec![contribute("COMPOSERS"), contribute("DATES")],
            compaction: Some(2),
            kill_after_events: None,
            torn_tail: false,
            binary: true, // the daemon polls a binary source alongside JSONL ones
        },
        SourcePlan {
            // Same title as source a: the namespaces keep them apart.
            ops: vec![contribute("COMPOSERS")],
            compaction: None,
            kill_after_events: None,
            torn_tail: false,
            binary: false,
        },
        SourcePlan {
            ops: vec![contribute("FAMILIES")],
            compaction: None,
            kill_after_events: None,
            torn_tail: false,
            binary: false,
        },
    ];
    let script = FederationScript {
        sources: plans,
        schedule: vec![0, 1, 2],
    };

    let federation = open_federation(&dirs);
    let mut daemon = ReplicaDaemon::spawn_on(
        federation,
        DaemonConfig {
            poll_interval: Duration::from_millis(5),
        },
        &Runtime::new(1),
        "daemon",
    );
    assert!(daemon.is_running());

    // Writes land while the daemon is live; a forced pass (racing the
    // scheduled ones harmlessly) makes them visible deterministically.
    let expected = drive_federation(&dirs, &script);
    daemon.force_catch_up().expect("sources present");
    daemon.with_federation(|federation| assert_converged(federation, &expected));

    // Serving APIs under the poll lock: federated query (both COMPOSERS
    // entries, namespaced apart), citations, manuscript export.
    let hits = daemon.query(&["composers"]);
    assert_eq!(hits.len(), 2);
    assert!(daemon
        .citations()
        .iter()
        .any(|c| c.contains("examples:b/composers")));
    let manuscript = daemon.export_manuscript(ManuscriptOptions::default());
    assert!(manuscript.contains("@misc{bx-a-composers-0-1,"));
    assert!(manuscript.contains("@misc{bx-b-composers-0-1,"));
    assert!(daemon.with_federation(|f| f
        .source_status()
        .iter()
        .all(|(_, status)| status.last_error.is_none())));
    assert!(daemon.stats().polls >= 1);

    // Clean stop: the thread is joined, a second stop is a no-op, and
    // the federation comes back out still holding the converged state.
    let stats = daemon.stop();
    assert!(!daemon.is_running(), "no orphan polling thread");
    assert_eq!(daemon.stop(), stats, "stop is idempotent");
    let federation = daemon.into_federation();
    assert_converged(&federation, &expected);

    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Regression guard for the harness itself: interleaving must not starve
/// any source (every op of every plan executes exactly once), whatever
/// the schedule.
#[test]
fn driver_runs_every_op_exactly_once() {
    let dirs = dirs("fed-complete");
    let contribute = |title: &str| RepoOp::Contribute {
        title: title.into(),
        discussion: "Counted.".into(),
    };
    let script = FederationScript {
        sources: vec![
            SourcePlan {
                ops: vec![contribute("COMPOSERS"), contribute("DATES")],
                compaction: None,
                kill_after_events: None,
                torn_tail: false,
                binary: false,
            },
            SourcePlan {
                ops: vec![contribute("FAMILIES")],
                compaction: None,
                kill_after_events: None,
                torn_tail: false,
                binary: true,
            },
            SourcePlan {
                ops: Vec::new(),
                compaction: None,
                kill_after_events: None,
                torn_tail: false,
                binary: false,
            },
        ],
        // A schedule that keeps pointing at one source: the modulo over
        // *live* sources must still drain the others.
        schedule: vec![0],
    };
    let expected = drive_federation(&dirs, &script);
    assert_eq!(expected[0].records.len(), 2);
    assert_eq!(expected[1].records.len(), 1);
    assert!(expected[2].records.is_empty());
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}
