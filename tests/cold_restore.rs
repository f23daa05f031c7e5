//! A cold restore rebuilds exactly what the primary holds. For any
//! random mutation script, in both on-disk formats, `restore_dir`
//! equals the primary's snapshot, and `Federation::open` of a plain read
//! replica (one identity source), or of several sources, equals the
//! primary's snapshot (or `federate_snapshots` of the primaries) with
//! the search index `SearchIndex::build` gives that state and a wiki
//! site consistent with it. A corrupt log surfaces a typed
//! `CorruptFrame` that names the damaged file, every time.

use bx::core::binlog::BinaryLogBackend;
use bx::core::index::SearchIndex;
use bx::core::replica::{federate_snapshots, Federation, SourceId};
use bx::core::storage::{EventLogBackend, StorageBackend};
use bx::core::wiki_bx::WikiBx;
use bx::core::RepoError;
use bx::theory::Bx;
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

/// `federation` holds `expected`: the snapshot, the index built from
/// it, and a site consistent with it.
fn assert_serves(federation: &Federation, expected: &bx::core::repo::RepositorySnapshot) {
    assert_eq!(federation.snapshot(), expected);
    assert_eq!(federation.index(), &SearchIndex::build(expected));
    assert!(WikiBx::new().consistent(federation.snapshot(), federation.site()));
}

/// Delete a case's temporary log directories.
fn remove_dirs<'a>(dirs: impl IntoIterator<Item = &'a std::path::PathBuf>) {
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `EventLogBackend::restore_dir` equals the primary on any script,
    /// in both formats.
    #[test]
    fn restore_dir_equals_the_primary(before in arb_ops(16), after in arb_ops(16)) {
        let jsonl = unique_temp_dir("cold-restore-jsonl");
        let expected = checkpointed_jsonl(&jsonl, &before, &after);
        let binary = unique_temp_dir("cold-restore-bin");
        bx::core::binlog::convert_log_dir(&jsonl, &binary, true).unwrap();
        for dir in [&jsonl, &binary] {
            prop_assert_eq!(&EventLogBackend::restore_dir(dir).unwrap(), &expected);
        }
        remove_dirs([&jsonl, &binary]);
    }

    /// A replica's `Federation::open` serves the primary's state, in
    /// both formats.
    #[test]
    fn replica_open_equals_the_primary(before in arb_ops(12), after in arb_ops(12)) {
        let jsonl = unique_temp_dir("cold-replica-jsonl");
        let expected = checkpointed_jsonl(&jsonl, &before, &after);
        let binary = unique_temp_dir("cold-replica-bin");
        bx::core::binlog::convert_log_dir(&jsonl, &binary, true).unwrap();
        for dir in [&jsonl, &binary] {
            assert_serves(&Federation::open("", replica_of(dir)).unwrap(), &expected);
        }
        remove_dirs([&jsonl, &binary]);
    }

    /// `Federation::open` over several sources serves the federation of
    /// the primaries.
    #[test]
    fn federation_open_equals_the_federated_primaries(
        ops_a in arb_ops(10),
        ops_b in arb_ops(10),
        ops_c in arb_ops(10),
    ) {
        let dirs: Vec<std::path::PathBuf> = ["cold-fed-a", "cold-fed-b", "cold-fed-c"]
            .iter()
            .map(|tag| unique_temp_dir(tag))
            .collect();
        let ids = [SourceId::new("a"), SourceId::new("b"), SourceId::new("c")];
        let mut primaries = Vec::new();
        for ((dir, ops), id) in dirs.iter().zip([&ops_a, &ops_b, &ops_c]).zip(&ids) {
            primaries.push((id.clone(), checkpointed_jsonl(dir, ops, &[])));
        }
        // One source in each format, to cross the dispatch too.
        let bin = unique_temp_dir("cold-fed-a-bin");
        bx::core::binlog::convert_log_dir(&dirs[0], &bin, true).unwrap();
        let sources = vec![
            (ids[0].clone(), bin.clone()),
            (ids[1].clone(), dirs[1].clone()),
            (ids[2].clone(), dirs[2].clone()),
        ];
        let federation = Federation::open("fed", sources).unwrap();
        assert_serves(&federation, &federate_snapshots("fed", &primaries));
        remove_dirs(dirs.iter().chain([&bin]));
    }
}

/// A flipped byte in an *early* segment of a multi-segment binary log
/// surfaces a `CorruptFrame` naming that segment, the same on every
/// restore.
#[test]
fn corrupt_segment_names_the_flipped_segment_every_time() {
    let dir = unique_temp_dir("cold-corrupt-bin");
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
    for run in 0..5 {
        let err = EventLogBackend::restore_dir(&dir).unwrap_err();
        assert_eq!(err, baseline, "run {run}");
    }
    remove_dirs([&dir]);
}

/// A vandalised middle line of a JSONL log is a typed `CorruptFrame` in
/// `events-0.jsonl`, and a replica's cold open surfaces the same error.
#[test]
fn corrupt_jsonl_line_is_a_typed_frame_error() {
    let dir = unique_temp_dir("cold-corrupt-jsonl");
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
    assert_eq!(
        Federation::open("", replica_of(&dir)).unwrap_err(),
        baseline,
        "the cold open surfaces the restore's error"
    );
    remove_dirs([&dir]);
}
