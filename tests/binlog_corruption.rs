//! Corruption detection across the whole binary log, by exhaustive
//! fault injection: flip any single byte of any segment and recovery
//! reports the typed [`RepoError::CorruptFrame`] — never a silent skip,
//! never a panic, never a clean-looking restore over damaged history.
//! Truncation is the one tolerated fault: cutting the *live* segment
//! anywhere restores the clean prefix, exactly what a crash mid-append
//! may leave. Plus the composition checks: replicas tail binary
//! directories incrementally, auto-compaction checkpoints them, and a
//! `CrashingBackend` fuse leaves a recoverable directory behind.

use bx::core::binlog::BinaryLogBackend;
use bx::core::replica::LogTail;
use bx::core::storage::{
    AutoCompactingBinaryLog, CompactionPolicy, EventLogBackend, StorageBackend,
};
use bx::core::{Principal, RepoError};
use bx_testkit::faults::CrashingBackend;
use bx_testkit::federation::{catch_up_clean, open_replica};
use bx_testkit::ops::{apply_ops, scripted_repository, unique_temp_dir, valid_entry, RepoOp};

/// A short deterministic script producing a healthy spread of event
/// variants (contributions, revisions, comments, reviews, approvals).
fn script(titles: &[&str]) -> Vec<RepoOp> {
    let mut ops = Vec::new();
    for title in titles {
        ops.push(RepoOp::Contribute {
            title: title.to_string(),
            discussion: format!("discussion of {title}"),
        });
        ops.push(RepoOp::Comment {
            title: title.to_string(),
            text: format!("a note on {title}"),
        });
        ops.push(RepoOp::Revise {
            title: title.to_string(),
            overview: format!("revised {title}"),
        });
        ops.push(RepoOp::RequestReview {
            title: title.to_string(),
        });
        ops.push(RepoOp::Approve {
            title: title.to_string(),
        });
    }
    ops
}

/// A recorded binary log directory plus the healthy snapshot it holds.
fn recorded_dir(tag: &str, segment_bytes: Option<u64>) -> (std::path::PathBuf, Vec<String>) {
    let dir = unique_temp_dir(tag);
    let repo = scripted_repository();
    apply_ops(&repo, &script(&["Composers", "Dates", "Heaters"]));
    let mut backend = match segment_bytes {
        Some(cap) => BinaryLogBackend::open_with_segment_bytes(&dir, cap).unwrap(),
        None => BinaryLogBackend::open(&dir).unwrap(),
    };
    backend.record(&repo.drain_events()).unwrap();
    assert_eq!(backend.restore().unwrap(), repo.snapshot());
    let segments = backend.generation_files().unwrap();
    (dir, segments)
}

/// Restore the directory and demand the typed corruption error — not a
/// clean snapshot (silent skip) and not a panic.
fn assert_corrupt(dir: &std::path::Path, segment: &str, byte: usize) {
    match EventLogBackend::restore_dir(dir) {
        Err(RepoError::CorruptFrame { .. }) => {}
        Ok(_) => panic!("flipping byte {byte} of `{segment}` restored cleanly — silent corruption"),
        Err(other) => panic!("flipping byte {byte} of `{segment}` gave untyped error: {other}"),
    }
}

#[test]
fn every_flipped_byte_of_a_single_segment_log_is_detected() {
    let (dir, segments) = recorded_dir("binlog-flip-all", None);
    assert_eq!(segments.len(), 1, "default cap keeps one segment");
    let path = dir.join(&segments[0]);
    let pristine = std::fs::read(&path).unwrap();
    for byte in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[byte] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_corrupt(&dir, &segments[0], byte);
    }
    std::fs::write(&path, &pristine).unwrap();
    assert!(EventLogBackend::restore_dir(&dir).is_ok());
}

#[test]
fn flips_across_a_multi_segment_log_are_detected_in_every_segment() {
    let (dir, segments) = recorded_dir("binlog-flip-multi", Some(512));
    assert!(
        segments.len() >= 3,
        "a 512-byte cap must roll several segments (got {})",
        segments.len()
    );
    for segment in &segments {
        let path = dir.join(segment);
        let pristine = std::fs::read(&path).unwrap();
        // Stepped sweep: the single-segment test is exhaustive, here we
        // cover every segment (sealed and live) at a coarser grain.
        for byte in (0..pristine.len()).step_by(7) {
            let mut bytes = pristine.clone();
            bytes[byte] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert_corrupt(&dir, segment, byte);
        }
        std::fs::write(&path, &pristine).unwrap();
    }
    assert!(EventLogBackend::restore_dir(&dir).is_ok());
}

#[test]
fn every_flipped_bit_of_a_checkpoint_manifest_is_an_error_or_the_same_state() {
    let dir = unique_temp_dir("manifest-flip-all");
    let repo = scripted_repository();
    apply_ops(&repo, &script(&["Composers"]));
    let mut backend = EventLogBackend::open(&dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();
    backend.checkpoint(&repo.snapshot()).unwrap();
    let path = dir.join("checkpoint.json");
    let pristine = std::fs::read(&path).unwrap();
    assert!(
        (1_000..16_000).contains(&pristine.len()),
        "a small manifest ({} bytes)",
        pristine.len()
    );
    let healthy = EventLogBackend::read_state_in(&dir).unwrap();
    assert_eq!(healthy.0, repo.snapshot());

    // Every offset, each with one of the eight bits: the reader may
    // refuse the manifest, or (a flip that leaves no trace, such as one
    // renaming away the optional checksum key) return the same state,
    // but never a different one.
    for byte in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[byte] ^= 1 << (byte % 8);
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(state) = EventLogBackend::read_state_in(&dir) {
            assert!(
                state == healthy,
                "flipping bit {} of byte {byte} read back a different state",
                byte % 8
            );
        }
    }

    // A flip inside an entry's title still parses, to a different
    // title; only the checksum can catch it.
    let text = String::from_utf8(pristine.clone()).unwrap();
    let title_at = text.find("\"title\":\"Composers\"").unwrap() + "\"title\":\"".len();
    for byte in title_at..title_at + "Composers".len() {
        let mut bytes = pristine.clone();
        bytes[byte] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match EventLogBackend::read_state_in(&dir) {
            Err(RepoError::CorruptManifest { .. }) => {}
            other => panic!("flipping title byte {byte} gave {other:?}, not CorruptManifest"),
        }
    }
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(EventLogBackend::read_state_in(&dir).unwrap(), healthy);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn any_truncation_of_the_live_segment_restores_a_clean_prefix() {
    let (dir, segments) = recorded_dir("binlog-truncate", None);
    let generation = EventLogBackend::read_state_in(&dir).unwrap().1;
    let full = EventLogBackend::read_generation_events(&dir, &generation).unwrap();
    let path = dir.join(&segments[0]);
    let pristine = std::fs::read(&path).unwrap();
    let mut prefix_lengths = std::collections::BTreeSet::new();
    for cut in (0..pristine.len()).rev() {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        let events = EventLogBackend::read_generation_events(&dir, &generation)
            .unwrap_or_else(|e| panic!("truncation at {cut} must stay readable, got {e}"));
        assert_eq!(
            events,
            full[..events.len()],
            "truncation at byte {cut} must yield a prefix of the history"
        );
        prefix_lengths.insert(events.len());
    }
    assert!(
        prefix_lengths.len() > 2,
        "sweep should hit several distinct prefixes, got {prefix_lengths:?}"
    );
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(
        EventLogBackend::read_generation_events(&dir, &generation).unwrap(),
        full
    );
}

#[test]
fn truncating_a_sealed_segment_is_corruption_not_a_torn_tail() {
    let (dir, segments) = recorded_dir("binlog-truncate-sealed", Some(512));
    assert!(segments.len() >= 2);
    let sealed = dir.join(&segments[0]);
    let pristine = std::fs::read(&sealed).unwrap();
    std::fs::write(&sealed, &pristine[..pristine.len() - 3]).unwrap();
    match EventLogBackend::restore_dir(&dir) {
        Err(RepoError::CorruptFrame { .. }) => {}
        other => panic!("a short sealed segment must be CorruptFrame, got {other:?}"),
    }
}

/// A replica opened before its primary has written settles on
/// generation 0's default name, the JSONL one. A *binary* primary that
/// then starts writing must still be found: the tail that has observed
/// nothing re-resolves generation 0's format once its probe moves.
#[test]
fn a_replica_opened_before_its_binary_primary_writes_follows_it() {
    let dir = unique_temp_dir("binlog-blind");
    std::fs::remove_dir_all(&dir).unwrap();
    let mut replica = open_replica(&dir).unwrap();
    let nothing = catch_up_clean(&mut replica);
    assert_eq!(nothing.events_applied, 0, "no directory yet");
    std::fs::create_dir(&dir).unwrap();
    let nothing = catch_up_clean(&mut replica);
    assert_eq!(nothing.events_applied, 0, "an empty directory");

    let repo = scripted_repository();
    let mut backend = BinaryLogBackend::open(&dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();
    let caught = catch_up_clean(&mut replica);
    assert!(caught.events_applied > 0, "the binary log was never read");
    assert_eq!(caught.rebases, 0);
    assert_eq!(replica.snapshot(), &repo.snapshot());

    // Having observed the log, it tails it like any other.
    apply_ops(&repo, &script(&["Tailed"]));
    backend.record(&repo.drain_events()).unwrap();
    assert!(catch_up_clean(&mut replica).events_applied > 0);
    assert_eq!(replica.snapshot(), &repo.snapshot());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replicas_tail_binary_logs_incrementally_and_across_checkpoints() {
    let dir = unique_temp_dir("binlog-replica");
    let repo = scripted_repository();
    let mut backend = BinaryLogBackend::open(&dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();

    let mut replica = open_replica(&dir).unwrap();
    assert_eq!(replica.snapshot(), &repo.snapshot());

    // Unchanged log: polling applies nothing and does not rebase.
    let idle = catch_up_clean(&mut replica);
    assert_eq!((idle.events_applied, idle.rebases), (0, 0));

    // Incremental: only the appended tail is applied.
    apply_ops(&repo, &script(&["Tailed"]));
    backend.record(&repo.drain_events()).unwrap();
    let caught = catch_up_clean(&mut replica);
    assert!(caught.events_applied > 0 && caught.rebases == 0);
    assert_eq!(replica.snapshot(), &repo.snapshot());

    // Checkpoint crossing: the tail adopts the new base (rebases) and
    // lands on the same state.
    backend.checkpoint(&repo.snapshot()).unwrap();
    apply_ops(&repo, &script(&["Post Checkpoint"]));
    backend.record(&repo.drain_events()).unwrap();
    let crossed = catch_up_clean(&mut replica);
    assert_eq!(crossed.rebases, 1);
    assert_eq!(replica.snapshot(), &repo.snapshot());
}

#[test]
fn an_unchanged_binary_log_polls_with_zero_lag_and_zero_events() {
    let dir = unique_temp_dir("binlog-tail-idle");
    let repo = scripted_repository();
    let mut backend = BinaryLogBackend::open(&dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();

    let (mut tail, _base) = LogTail::open(&dir).unwrap();
    let first = tail.poll().unwrap();
    assert!(!first.events.is_empty());
    assert_eq!(tail.lag_bytes(), 0);
    let (generation, applied) = {
        let (g, a) = tail.position();
        (g.to_string(), a)
    };

    // Unchanged log: lag stays zero (a metadata stat over the segment
    // run), the poll returns nothing, and the position does not move.
    for _ in 0..3 {
        let idle = tail.poll().unwrap();
        assert!(idle.events.is_empty() && !idle.rebased);
        assert_eq!(tail.lag_bytes(), 0);
        assert_eq!(tail.position(), (generation.as_str(), applied));
    }

    // New frames become lag immediately, measured in bytes, before any
    // poll consumes them.
    repo.register(Principal::member("tessa")).unwrap();
    repo.contribute("tessa", valid_entry("Lag Probe", "lag measurement"))
        .unwrap();
    backend.record(&repo.drain_events()).unwrap();
    assert!(tail.lag_bytes() > 0);
    tail.poll().unwrap();
    assert_eq!(tail.lag_bytes(), 0);
}

// == What an idle poll must still notice ==
//
// A tail that has read its generation answers later polls from a few
// stats of paths it already knows: the manifest, each listed file and
// the name of the segment a writer would roll to next. These tests move
// each of those between two polls and check that the very next poll
// acts on it exactly as a full re-read would.

/// A caught-up replica of a binary log with a small segment cap (so the
/// generation spans several segments), after a few idle passes have
/// warmed its probe.
fn idle_replica(
    tag: &str,
    segment_bytes: u64,
) -> (
    std::path::PathBuf,
    bx::core::Repository,
    BinaryLogBackend,
    bx::core::replica::Federation,
) {
    let dir = unique_temp_dir(tag);
    let repo = scripted_repository();
    apply_ops(&repo, &script(&["Composers", "Dates"]));
    let mut backend = BinaryLogBackend::open_with_segment_bytes(&dir, segment_bytes).unwrap();
    backend.record(&repo.drain_events()).unwrap();
    let mut replica = open_replica(&dir).unwrap();
    for _ in 0..2 {
        let idle = catch_up_clean(&mut replica);
        assert_eq!((idle.events_applied, idle.rebases), (0, 0));
    }
    assert_eq!(replica.snapshot(), &repo.snapshot());
    (dir, repo, backend, replica)
}

#[test]
fn a_segment_roll_between_polls_is_applied_by_the_next_poll() {
    let (dir, repo, mut backend, mut replica) = idle_replica("binlog-probe-roll", 200);
    let before = backend.generation_files().unwrap();
    let last = dir.join(before.last().unwrap());
    let last_len = std::fs::metadata(&last).unwrap().len();

    apply_ops(&repo, &script(&["Rolled"]));
    let events = repo.drain_events();
    backend.record(&events).unwrap();
    let after = backend.generation_files().unwrap();
    assert!(after.len() > before.len(), "the batch rolled the segment");
    assert_eq!(
        std::fs::metadata(&last).unwrap().len(),
        last_len,
        "the old last segment did not grow: only the new segment's name shows the roll"
    );

    let caught = catch_up_clean(&mut replica);
    assert_eq!((caught.events_applied, caught.rebases), (events.len(), 0));
    assert_eq!(replica.snapshot(), &repo.snapshot());
    assert_eq!(replica.lag()[0].1, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_between_polls_re_bases_on_the_next_poll() {
    let (dir, repo, mut backend, mut replica) = idle_replica("binlog-probe-checkpoint", 200);
    // A bare checkpoint: nothing is appended after it, so only the
    // manifest moved.
    backend.checkpoint(&repo.snapshot()).unwrap();
    let crossed = catch_up_clean(&mut replica);
    assert_eq!((crossed.events_applied, crossed.rebases), (0, 1));
    assert_eq!(replica.snapshot(), &repo.snapshot());
    let generation = backend.current_generation().to_string();
    assert_eq!(replica.positions()[0].1, generation.as_str());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn losing_or_cutting_a_sealed_segment_re_bases_on_the_next_poll() {
    // The first sealed segment holding more than one frame, and where
    // its first frame ends (a record boundary).
    fn multi_frame_segment(dir: &std::path::Path, segments: &[String]) -> (String, u64) {
        for name in &segments[..segments.len() - 1] {
            let bytes = std::fs::read(dir.join(name)).unwrap();
            let first = 12 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as u64;
            if first < bytes.len() as u64 {
                return (name.clone(), first);
            }
        }
        panic!("no sealed segment holds two frames");
    }

    // Deleted: the tail re-bases onto what the directory still holds.
    let (dir, _, backend, mut replica) = idle_replica("binlog-probe-lost", 512);
    let segments = backend.generation_files().unwrap();
    assert!(segments.len() >= 3);
    std::fs::remove_file(dir.join(&segments[1])).unwrap();
    let lost = catch_up_clean(&mut replica);
    assert_eq!(lost.rebases, 1, "a lost sealed segment is never idle");
    let holds = EventLogBackend::restore_dir(&dir).unwrap();
    assert_eq!(replica.snapshot().records, holds.records);
    std::fs::remove_dir_all(&dir).ok();

    // Cut at a record boundary: the same re-base.
    let (dir, _, backend, mut replica) = idle_replica("binlog-probe-cut", 512);
    let (name, first) = multi_frame_segment(&dir, &backend.generation_files().unwrap());
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(&name))
        .unwrap();
    file.set_len(first).unwrap();
    let cut = catch_up_clean(&mut replica);
    assert_eq!(cut.rebases, 1, "a shortened sealed segment is never idle");
    let holds = EventLogBackend::restore_dir(&dir).unwrap();
    assert_eq!(replica.snapshot().records, holds.records);
    std::fs::remove_dir_all(&dir).ok();

    // Cut mid-record: the re-read finds the sealed segment torn, which
    // is corruption, reported on the very next poll.
    let (dir, repo, backend, mut replica) = idle_replica("binlog-probe-torn-sealed", 512);
    let (name, first) = multi_frame_segment(&dir, &backend.generation_files().unwrap());
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(&name))
        .unwrap();
    file.set_len(first + 5).unwrap();
    let outcome = replica.catch_up().unwrap();
    assert!(
        matches!(
            outcome.errors.as_slice(),
            [(_, RepoError::CorruptFrame { .. })]
        ),
        "got {:?}",
        outcome.errors
    );
    assert_eq!(
        replica.snapshot(),
        &repo.snapshot(),
        "last good state serves"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pending_torn_tail_is_re_read_until_it_heals() {
    let dir = unique_temp_dir("binlog-probe-torn");
    let repo = scripted_repository();
    let mut backend = BinaryLogBackend::open(&dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();
    let (mut tail, _) = LogTail::open(&dir).unwrap();
    let applied = tail.poll().unwrap().events.len();

    let torn = bx::core::binlog::torn_frame_bytes();
    let live = dir.join(backend.generation_files().unwrap().last().unwrap());
    let mut bytes = std::fs::read(&live).unwrap();
    bytes.extend_from_slice(&torn);
    std::fs::write(&live, bytes).unwrap();
    for _ in 0..3 {
        let pending = tail.poll().unwrap();
        assert!(pending.events.is_empty() && !pending.rebased);
        assert_eq!(tail.position().1, applied);
        assert_eq!(tail.lag_bytes(), torn.len() as u64);
    }

    // The writer reopens (truncating the fragment) and appends.
    let mut backend = BinaryLogBackend::open(&dir).unwrap();
    apply_ops(&repo, &script(&["Healed"]));
    let healed = repo.drain_events();
    backend.record(&healed).unwrap();
    let progress = tail.poll().unwrap();
    assert_eq!(
        (progress.events.len(), progress.rebased),
        (healed.len(), false)
    );
    assert_eq!(tail.lag_bytes(), 0);
    assert_eq!(tail.position().1, applied + healed.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_vanished_directory_or_manifest_fails_the_first_poll_after() {
    let unavailable =
        |result: Result<_, RepoError>| matches!(result, Err(RepoError::SourceUnavailable { .. }));
    for checkpointed in [false, true] {
        // The whole directory goes.
        let (dir, repo, mut backend, _) = idle_replica("binlog-probe-vanish", 512);
        if checkpointed {
            backend.checkpoint(&repo.snapshot()).unwrap();
        }
        let (mut tail, _) = LogTail::open(&dir).unwrap();
        tail.poll().unwrap();
        assert!(tail.poll().unwrap().events.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(unavailable(tail.poll()), "checkpointed: {checkpointed}");
        assert!(unavailable(tail.poll()), "and it stays unavailable");
    }

    // The manifest alone goes; the log files stay put.
    let (dir, repo, mut backend, _) = idle_replica("binlog-probe-manifest", 512);
    backend.checkpoint(&repo.snapshot()).unwrap();
    apply_ops(&repo, &script(&["Kept"]));
    backend.record(&repo.drain_events()).unwrap();
    let (mut tail, _) = LogTail::open(&dir).unwrap();
    tail.poll().unwrap();
    assert!(tail.poll().unwrap().events.is_empty());
    let manifest = dir.join("checkpoint.json");
    let saved = std::fs::read(&manifest).unwrap();
    std::fs::remove_file(&manifest).unwrap();
    assert!(unavailable(tail.poll()));
    // Restored, the tail resumes where it was.
    std::fs::write(&manifest, saved).unwrap();
    let resumed = tail.poll().unwrap();
    assert!(resumed.events.is_empty() && !resumed.rebased);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auto_compaction_checkpoints_binary_logs_and_replicas_follow() {
    let dir = unique_temp_dir("binlog-compact");
    let repo = scripted_repository();
    let mut backend = AutoCompactingBinaryLog::open_with(
        &dir,
        CompactionPolicy {
            checkpoint_every: 8,
        },
    )
    .unwrap();
    backend.record(&repo.drain_events()).unwrap();
    let mut replica = open_replica(&dir).unwrap();

    let mut rebases = 0;
    for round in 0..4 {
        apply_ops(&repo, &script(&[&format!("Compacted {round}")]));
        backend.record(&repo.drain_events()).unwrap();
        let caught = catch_up_clean(&mut replica);
        rebases += caught.rebases;
        assert_eq!(replica.snapshot(), &repo.snapshot());
    }
    assert!(
        rebases > 0,
        "an 8-event policy must checkpoint within 4 five-op rounds"
    );
    assert_eq!(EventLogBackend::restore_dir(&dir).unwrap(), repo.snapshot());
}

#[test]
fn a_crashing_fuse_leaves_a_recoverable_binary_directory() {
    let dir = unique_temp_dir("binlog-fuse");
    let repo = scripted_repository();
    let founding = repo.drain_events();
    let mut backend = CrashingBackend::new(BinaryLogBackend::open(&dir).unwrap(), 12);
    backend.record(&founding).unwrap();

    apply_ops(&repo, &script(&["Doomed", "Writes"]));
    let mut durable = founding.len();
    let mut tripped = false;
    for event in repo.drain_events() {
        match backend.record(std::slice::from_ref(&event)) {
            Ok(()) => durable += 1,
            Err(e) => {
                assert!(matches!(e, RepoError::Persist(ref m) if m.contains("injected crash")));
                tripped = true;
                break;
            }
        }
    }
    assert!(tripped, "the fuse must burn out mid-script");

    // The directory holds exactly the events that committed before the
    // crash — a fresh open (with torn-tail repair) restores them.
    let reopened = BinaryLogBackend::open(&dir).unwrap();
    assert_eq!(reopened.pending_events().unwrap(), durable);
    assert!(reopened.restore().is_ok());
}
