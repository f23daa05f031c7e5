//! The parallel restore pipeline is an *optimisation*, not a semantics
//! change — property-tested here. For any random mutation script, in
//! both on-disk formats, a restore on an N-worker runtime equals
//! the sequential, runtime-less restore byte-for-byte: same snapshot
//! from `restore_dir_on`, same snapshot **and** search index **and**
//! wiki site (full revision histories included) from `Federation::open_on`
//! over one identity source (a plain read replica) and over several. Corruption reporting is deterministic
//! too: a corrupt log surfaces the same typed error — same segment,
//! same offset — at every thread count, across repeated runs, even
//! though the parallel decode *discovers* errors in scrambled order.

use bx::core::binlog::BinaryLogBackend;
use bx::core::replica::{Federation, SourceId};
use bx::core::storage::{EventLogBackend, StorageBackend};
use bx::core::{RepoError, Runtime};
use bx_testkit::ops::{apply_ops, arb_ops, scripted_repository, unique_temp_dir};
use proptest::prelude::*;

/// Record a scripted history into `dir`: `before` ops, a checkpoint,
/// then `after` ops — so the restore exercises manifest base + pending
/// tail, not just a bare log.
fn checkpointed_jsonl(
    dir: &std::path::Path,
    before: &[bx_testkit::ops::RepoOp],
    after: &[bx_testkit::ops::RepoOp],
) -> bx::core::repo::RepositorySnapshot {
    let repo = scripted_repository();
    apply_ops(&repo, before);
    let mut backend = EventLogBackend::open(dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();
    backend.checkpoint(&repo.snapshot()).unwrap();
    apply_ops(&repo, after);
    backend.record(&repo.drain_events()).unwrap();
    repo.snapshot()
}

/// The source list of a plain read replica of `dir`.
fn replica_of(dir: &std::path::Path) -> Vec<(SourceId, std::path::PathBuf)> {
    vec![(SourceId::identity(), dir.to_path_buf())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `EventLogBackend::restore_dir_on` at N workers equals the
    /// sequential restore on any script, in both formats.
    #[test]
    fn parallel_restore_matches_sequential(before in arb_ops(16), after in arb_ops(16)) {
        let jsonl = unique_temp_dir("par-restore-jsonl");
        let expected = checkpointed_jsonl(&jsonl, &before, &after);
        let binary = unique_temp_dir("par-restore-bin");
        bx::core::binlog::convert_log_dir(&jsonl, &binary, true).unwrap();
        for dir in [&jsonl, &binary] {
            let sequential = EventLogBackend::restore_dir(dir).unwrap();
            prop_assert_eq!(&sequential, &expected);
            for threads in [2usize, 8] {
                let parallel =
                    EventLogBackend::restore_dir_on(dir, &Runtime::new(threads))
                        .unwrap();
                prop_assert_eq!(&parallel, &sequential);
            }
        }
    }

    /// A replica's `Federation::open_on` at N workers rebuilds the *same
    /// bytes* as the sequential open: snapshot, index, and wiki site with its full
    /// per-page revision history.
    #[test]
    fn parallel_replica_open_matches_sequential(before in arb_ops(12), after in arb_ops(12)) {
        let jsonl = unique_temp_dir("par-replica-jsonl");
        let expected = checkpointed_jsonl(&jsonl, &before, &after);
        let binary = unique_temp_dir("par-replica-bin");
        bx::core::binlog::convert_log_dir(&jsonl, &binary, true).unwrap();
        for dir in [&jsonl, &binary] {
            let sequential = Federation::open("", replica_of(dir)).unwrap();
            prop_assert_eq!(sequential.snapshot(), &expected);
            for threads in [2usize, 8] {
                let parallel =
                    Federation::open_on("", replica_of(dir), &Runtime::new(threads)).unwrap();
                prop_assert_eq!(parallel.snapshot(), sequential.snapshot());
                prop_assert_eq!(parallel.index(), sequential.index());
                prop_assert_eq!(parallel.site(), sequential.site());
            }
        }
    }

    /// `Federation::open_on` at N workers over several sources merges
    /// to the sequential open's exact state.
    #[test]
    fn parallel_federation_open_matches_sequential(
        ops_a in arb_ops(10),
        ops_b in arb_ops(10),
        ops_c in arb_ops(10),
    ) {
        let dirs: Vec<std::path::PathBuf> = ["fed-par-a", "fed-par-b", "fed-par-c"]
            .iter()
            .map(|tag| unique_temp_dir(tag))
            .collect();
        for (dir, ops) in dirs.iter().zip([&ops_a, &ops_b, &ops_c]) {
            checkpointed_jsonl(dir, ops, &[]);
        }
        // One source in each format, to cross the dispatch too.
        let bin = unique_temp_dir("fed-par-a-bin");
        bx::core::binlog::convert_log_dir(&dirs[0], &bin, true).unwrap();
        let sources = vec![
            (SourceId::new("a"), bin),
            (SourceId::new("b"), dirs[1].clone()),
            (SourceId::new("c"), dirs[2].clone()),
        ];
        let sequential = Federation::open("fed", sources.clone()).unwrap();
        let parallel =
            Federation::open_on("fed", sources, &Runtime::new(8)).unwrap();
        prop_assert_eq!(parallel.snapshot(), sequential.snapshot());
        prop_assert_eq!(parallel.index(), sequential.index());
        prop_assert_eq!(parallel.site(), sequential.site());
    }
}

/// Corruption reporting is deterministic across thread counts and runs:
/// a flipped byte in an *early* segment of a multi-segment binary log
/// surfaces the same `CorruptFrame { segment, offset }` whether one
/// thread or eight decode it, every time. (The parallel decode gathers
/// per-segment results in log order, so the first error in the log —
/// not the first discovered — always wins.)
#[test]
fn corrupt_segment_reports_identically_at_every_thread_count() {
    let dir = unique_temp_dir("par-corrupt-bin");
    let repo = scripted_repository();
    // Small segments force a multi-segment generation.
    let mut backend = BinaryLogBackend::open_with_segment_bytes(&dir, 400).unwrap();
    for i in 0..12 {
        repo.contribute(
            bx_testkit::ops::AUTHOR,
            bx_testkit::ops::valid_entry(
                &format!("Corrupt Determinism {i}"),
                "enough text to fill segments quickly",
            ),
        )
        .unwrap();
        backend.record(&repo.drain_events()).unwrap();
    }
    let segments = backend.generation_files().unwrap();
    assert!(
        segments.len() >= 3,
        "need several segments, got {}",
        segments.len()
    );
    // Flip one payload byte in an early (sealed) segment.
    let early = &segments[0];
    let path = dir.join(early);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();

    let baseline = EventLogBackend::restore_dir(&dir).unwrap_err();
    let RepoError::CorruptFrame { ref segment, .. } = baseline else {
        panic!("expected CorruptFrame, got {baseline:?}");
    };
    assert_eq!(segment, early, "the corrupted segment is the one reported");
    for _run in 0..5 {
        for threads in [1usize, 8] {
            let err = EventLogBackend::restore_dir_on(&dir, &Runtime::new(threads)).unwrap_err();
            assert_eq!(err, baseline, "threads={threads}");
        }
    }
}

/// The same determinism for a JSONL log: a corrupted middle line
/// reports the same parse error at every thread count, and the parallel
/// replica open surfaces it exactly as the sequential open does.
#[test]
fn corrupt_jsonl_line_reports_identically_at_every_thread_count() {
    let dir = unique_temp_dir("par-corrupt-jsonl");
    let repo = scripted_repository();
    for i in 0..8 {
        repo.contribute(
            bx_testkit::ops::AUTHOR,
            bx_testkit::ops::valid_entry(&format!("Jsonl Determinism {i}"), "filler text"),
        )
        .unwrap();
    }
    let mut backend = EventLogBackend::open(&dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();
    let log = dir.join("events-0.jsonl");
    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut vandalised: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    vandalised[lines.len() / 2] = "{\"NotAnEvent\":1}".to_string();
    std::fs::write(&log, vandalised.join("\n") + "\n").unwrap();

    let baseline = EventLogBackend::restore_dir(&dir).unwrap_err();
    assert!(
        matches!(
            baseline,
            RepoError::CorruptFrame { ref segment, .. } if segment == "events-0.jsonl"
        ),
        "corrupt JSONL is typed with its segment and offset: {baseline:?}"
    );
    for threads in [2usize, 8] {
        let err = EventLogBackend::restore_dir_on(&dir, &Runtime::new(threads)).unwrap_err();
        assert_eq!(err, baseline, "threads={threads}");
        let open_err =
            Federation::open_on("", replica_of(&dir), &Runtime::new(threads)).unwrap_err();
        assert_eq!(
            open_err,
            Federation::open("", replica_of(&dir)).unwrap_err(),
            "threads={threads}"
        );
    }
}
