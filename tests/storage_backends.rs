//! All three `StorageBackend` implementations round-trip the standard
//! repository — via checkpoint, via pure delta recording, and mixed —
//! and the auto-compaction policy keeps the event log O(1) generations
//! deep without changing the restored state. Both log formats are
//! pinned byte for byte, and every reader of a log agrees on its fold.

use std::collections::BTreeMap;
use std::path::Path;

use bx::core::binlog::{encode_frame, BinaryLogBackend};
use bx::core::replica::Replica;
use bx::core::storage::{
    AutoCompactingEventLog, CompactionPolicy, DurabilityMode, EventLogBackend, JsonFileBackend,
    MemoryBackend, StorageBackend,
};
use bx::core::{EntryId, Principal, RepoEvent, Repository};
use bx::examples::standard_repository;
use bx_testkit::ops::unique_temp_dir;

#[test]
fn all_backends_roundtrip_the_standard_repository() {
    let repo = standard_repository();
    let events = repo.drain_events();
    let snapshot = repo.snapshot();
    assert!(
        events.len() > snapshot.records.len(),
        "the standard collection is built through the event-recording API"
    );

    let json_dir = unique_temp_dir("backends-json");
    let log_dir = unique_temp_dir("backends-log");
    let mut backends: Vec<Box<dyn StorageBackend>> = vec![
        Box::new(MemoryBackend::new()),
        Box::new(JsonFileBackend::new(json_dir.join("repo.json"))),
        Box::new(EventLogBackend::open(&log_dir).unwrap()),
    ];

    for backend in &mut backends {
        // Delta path: the standard collection's full construction history.
        backend.record(&events).unwrap();
        assert_eq!(
            backend.restore().unwrap(),
            snapshot,
            "{} restores the recorded deltas",
            backend.kind()
        );
        // Checkpoint path: compaction changes nothing observable.
        backend.checkpoint(&snapshot).unwrap();
        assert_eq!(
            backend.restore().unwrap(),
            snapshot,
            "{} restores its checkpoint",
            backend.kind()
        );
        // The restored state is a live repository again.
        let revived = Repository::from_snapshot(backend.restore().unwrap());
        assert_eq!(revived.len(), 13);
        revived
            .comment(
                "James Cheney",
                &EntryId::from_title("COMPOSERS"),
                "2014-05-01",
                "post-restore",
            )
            .unwrap();
    }

    std::fs::remove_dir_all(&json_dir).ok();
    std::fs::remove_dir_all(&log_dir).ok();
}

/// The compaction acceptance bar: M mutations, auto-checkpoint every
/// N < M events → O(1) generations on disk, restore replays ≤ N events,
/// and the restored state equals an uncompacted baseline fed the same
/// stream.
#[test]
fn auto_compaction_matches_the_uncompacted_baseline() {
    const M: usize = 120;
    const N: usize = 16;
    let auto_dir = unique_temp_dir("compact-auto");
    let base_dir = unique_temp_dir("compact-baseline");
    let mut compacting = AutoCompactingEventLog::open(
        &auto_dir,
        CompactionPolicy {
            checkpoint_every: N,
        },
    )
    .unwrap();
    let mut baseline = EventLogBackend::open(&base_dir).unwrap();

    let repo = standard_repository();
    let seed = repo.drain_events();
    compacting.record(&seed).unwrap();
    baseline.record(&seed).unwrap();

    let dates = EntryId::from_title("DATES");
    for i in 0..M {
        repo.comment("James Cheney", &dates, "2014-05-01", &format!("m{i}"))
            .unwrap();
        let events = repo.drain_events();
        compacting.record(&events).unwrap();
        baseline.record(&events).unwrap();
    }

    // O(1) generations: at most the current one (possibly none right
    // after a checkpoint), never the full history of superseded logs.
    assert!(compacting.inner().generation_files().unwrap().len() <= 1);
    // Restore replays at most N events.
    assert!(compacting.inner().pending_events().unwrap() <= N);
    assert!(compacting.events_since_checkpoint() <= N);
    // The baseline kept everything in one generation…
    assert_eq!(
        baseline.pending_events().unwrap(),
        seed.len() + M,
        "uncompacted baseline replays the full history"
    );
    // …and both restore the identical state, which is the live state.
    assert_eq!(compacting.restore().unwrap(), baseline.restore().unwrap());
    assert_eq!(compacting.restore().unwrap(), repo.snapshot());

    std::fs::remove_dir_all(&auto_dir).ok();
    std::fs::remove_dir_all(&base_dir).ok();
}

/// The two-phase durability API holds behind `Box<dyn StorageBackend>`
/// — the trait-object configuration the federation harness drives — for
/// every backend: `set_durability` + staged `record`s + one
/// `flush_durable` round-trips exactly like the fused default, and the
/// no-staging backends treat the new calls as no-ops.
#[test]
fn two_phase_durability_roundtrips_through_trait_objects() {
    let repo = standard_repository();
    let events = repo.drain_events();
    let snapshot = repo.snapshot();

    let json_dir = unique_temp_dir("two-phase-json");
    let log_dir = unique_temp_dir("two-phase-log");
    let auto_dir = unique_temp_dir("two-phase-auto");
    std::fs::create_dir_all(&json_dir).unwrap();
    let mut backends: Vec<Box<dyn StorageBackend>> = vec![
        Box::new(MemoryBackend::new()),
        Box::new(JsonFileBackend::new(json_dir.join("repo.json"))),
        Box::new(EventLogBackend::open(&log_dir).unwrap()),
        Box::new(
            AutoCompactingEventLog::open(
                &auto_dir,
                CompactionPolicy {
                    checkpoint_every: 16,
                },
            )
            .unwrap(),
        ),
    ];
    for backend in &mut backends {
        backend.set_durability(DurabilityMode::GroupCommit);
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        backend.record(b).unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(
            backend.restore().unwrap(),
            snapshot,
            "{} diverged under two-phase durability",
            backend.kind()
        );
        // Nothing staged: the fsync point is idempotent.
        backend.flush_durable().unwrap();
    }
    drop(backends);
    // The file-backed states survive a fresh process.
    assert_eq!(
        EventLogBackend::open(&log_dir).unwrap().restore().unwrap(),
        snapshot
    );
    assert_eq!(
        EventLogBackend::open(&auto_dir).unwrap().restore().unwrap(),
        snapshot
    );
    std::fs::remove_dir_all(&json_dir).ok();
    std::fs::remove_dir_all(&log_dir).ok();
    std::fs::remove_dir_all(&auto_dir).ok();
}

#[test]
fn event_log_survives_process_style_reopen_between_batches() {
    let dir = unique_temp_dir("backends-reopen");
    let repo = standard_repository();

    // First "process": record the construction history and drop the backend.
    {
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&repo.drain_events()).unwrap();
    }
    // Second "process": recover, keep curating, record the new deltas.
    {
        let mut backend = EventLogBackend::open(&dir).unwrap();
        let recovered = Repository::from_snapshot(backend.restore().unwrap());
        assert_eq!(recovered.snapshot(), repo.snapshot());
        recovered
            .comment(
                "James Cheney",
                &EntryId::from_title("DATES"),
                "2014-05-02",
                "second process",
            )
            .unwrap();
        backend.record(&recovered.drain_events()).unwrap();
    }
    // Third "process": both generations of deltas are there.
    let backend = EventLogBackend::open(&dir).unwrap();
    let final_state = backend.restore().unwrap();
    let dates = &final_state.records[&EntryId::from_title("DATES")];
    assert!(dates
        .latest()
        .comments
        .iter()
        .any(|c| c.text == "second process"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file in `dir`, by name, with its bytes.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect()
}

/// The JSONL files of `generation` holding `events`: one file, one
/// compact JSON line per event.
fn jsonl_files(generation: &str, events: &[RepoEvent]) -> BTreeMap<String, Vec<u8>> {
    let mut bytes = Vec::new();
    for event in events {
        bytes.extend_from_slice(serde_json::to_string(event).unwrap().as_bytes());
        bytes.push(b'\n');
    }
    BTreeMap::from([(generation.to_string(), bytes)])
}

/// The binary segment files of `generation` holding `events`: frames
/// packed greedily, a new segment whenever the next frame would take a
/// non-empty segment past `cap`.
fn binary_files(generation: &str, events: &[RepoEvent], cap: usize) -> BTreeMap<String, Vec<u8>> {
    let mut segments: Vec<Vec<u8>> = vec![Vec::new()];
    for event in events {
        let mut frame = Vec::new();
        encode_frame(event, &mut frame);
        let live = segments.last().unwrap();
        if !live.is_empty() && live.len() + frame.len() > cap {
            segments.push(Vec::new());
        }
        segments.last_mut().unwrap().extend_from_slice(&frame);
    }
    segments
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| (format!("{generation}.{i:06}"), bytes))
        .collect()
}

/// The on-disk formats do not move: a fixed script recorded through
/// either log format, per-batch or group-commit, leaves exactly the
/// files and bytes the format defines — before and after a checkpoint
/// in the middle of the script, with binary segments rolling at a small
/// cap.
#[test]
fn both_log_formats_are_pinned_byte_for_byte() {
    const CAP: usize = 6 * 1024;
    let repo = standard_repository();
    let events = repo.drain_events();
    let snapshot = repo.snapshot();
    let mid = events.len() / 2;
    let (before, after) = events.split_at(mid);
    let checkpoint = bx::core::event::replay(bx::core::repo::RepositorySnapshot::empty(""), before);
    for binary in [false, true] {
        for mode in [DurabilityMode::PerBatch, DurabilityMode::GroupCommit] {
            let dir = unique_temp_dir("pinned-format");
            let mut backend: Box<dyn StorageBackend> = if binary {
                Box::new(BinaryLogBackend::open_with_segment_bytes(&dir, CAP as u64).unwrap())
            } else {
                Box::new(EventLogBackend::open(&dir).unwrap())
            };
            let expected = |generation: &str, events: &[RepoEvent]| {
                if binary {
                    binary_files(&format!("{generation}.bin"), events, CAP)
                } else {
                    jsonl_files(&format!("{generation}.jsonl"), events)
                }
            };
            backend.set_durability(mode);
            for batch in before.chunks(5) {
                backend.record(batch).unwrap();
            }
            backend.flush_durable().unwrap();
            let first = expected("events-0", before);
            if binary {
                assert!(first.len() >= 3, "the cap must roll at least twice");
            }
            assert_eq!(dir_contents(&dir), first, "binary={binary} {mode:?}");

            backend.checkpoint(&checkpoint).unwrap();
            for batch in after.chunks(7) {
                backend.record(batch).unwrap();
            }
            backend.flush_durable().unwrap();
            let mut second = dir_contents(&dir);
            assert!(second.remove("checkpoint.json").is_some());
            assert_eq!(
                second,
                expected("events-1", after),
                "binary={binary} {mode:?}"
            );
            let generation = if binary {
                "events-1.bin"
            } else {
                "events-1.jsonl"
            };
            assert_eq!(
                EventLogBackend::read_state_in(&dir).unwrap(),
                (checkpoint.clone(), generation.to_string())
            );
            assert_eq!(backend.restore().unwrap(), snapshot);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A final line without its `\n` was never acknowledged (`record`
/// returns only after the line and its newline are written and
/// fsynced), so no reader may apply it — even when it parses.
#[test]
fn every_reader_drops_an_unterminated_final_line() {
    let dir = unique_temp_dir("unterminated-line");
    let repo = Repository::found("bx", vec![Principal::curator("c")]);
    let mut backend = EventLogBackend::open(&dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();
    drop(backend);
    repo.register(Principal::member("alice")).unwrap();
    let unacknowledged = serde_json::to_string(&repo.drain_events()[0]).unwrap();
    let log = dir.join("events-0.jsonl");
    let mut bytes = std::fs::read(&log).unwrap();
    bytes.extend_from_slice(unacknowledged.as_bytes());
    std::fs::write(&log, bytes).unwrap();

    // Read-only readers first: opening a writer repairs the tail.
    let restored = EventLogBackend::restore_dir(&dir).unwrap();
    let replica = Replica::open(&dir).unwrap();
    let reopened = EventLogBackend::open(&dir).unwrap().restore().unwrap();
    assert_eq!(restored.accounts.len(), 1, "restore_dir");
    assert_eq!(replica.snapshot().accounts.len(), 1, "Replica::open");
    assert_eq!(reopened.accounts.len(), 1, "EventLogBackend::open");
    assert_eq!(restored, *replica.snapshot());
    assert_eq!(restored, reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// A JSONL directory without a manifest is refused by the binary
/// backend, as a binary one is by the JSONL backend, instead of growing
/// a binary generation beside the JSONL events and shadowing them.
#[test]
fn the_binary_backend_refuses_an_unmanifested_jsonl_directory() {
    let dir = unique_temp_dir("refuse-jsonl");
    let repo = Repository::found("bx", vec![Principal::curator("c")]);
    repo.register(Principal::member("alice")).unwrap();
    let mut jsonl = EventLogBackend::open(&dir).unwrap();
    jsonl.record(&repo.drain_events()).unwrap();
    drop(jsonl);
    let fold = EventLogBackend::restore_dir(&dir).unwrap();
    assert_eq!(fold, repo.snapshot());

    let err = BinaryLogBackend::open(&dir).unwrap_err();
    assert!(
        err.to_string().contains("bx_logconv"),
        "the refusal names the converter: {err}"
    );
    assert_eq!(EventLogBackend::restore_dir(&dir).unwrap(), fold);
    assert_eq!(
        dir_contents(&dir).into_keys().collect::<Vec<_>>(),
        vec!["events-0.jsonl".to_string()]
    );
    std::fs::remove_dir_all(&dir).ok();
}
