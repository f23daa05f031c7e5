//! Fault injection over the background durability pipeline: the writer
//! thread is killed mid-stream (a `CrashingBackend` fuse burns out inside
//! a batch), the final append is torn as if the process died mid-`write`,
//! and recovery — `EventLogBackend` reopen plus a read replica (a
//! one-source identity `Federation`) tailing the directory — must
//! converge with the primary.

use std::sync::Arc;
use std::time::Duration;

use bx::core::event::replay;
use bx::core::index::SearchIndex;
use bx::core::pipeline::{BackgroundWriter, PipelineConfig};
use bx::core::repo::RepositorySnapshot;
use bx::core::storage::{EventLogBackend, StorageBackend};
use bx::core::wiki_bx::WikiBx;
use bx::core::{RepoError, Runtime};
use bx::theory::Bx;
use bx_testkit::faults::{torn_append, CrashingBackend};
use bx_testkit::federation::{catch_up_clean, open_replica};
use bx_testkit::ops::{apply_ops, scripted_repository, unique_temp_dir, RepoOp};

/// A deterministic script big enough to outlive the fuse.
fn script() -> Vec<RepoOp> {
    let mut ops = Vec::new();
    for (i, title) in ["COMPOSERS", "UML2RDBMS", "DATES"].iter().enumerate() {
        ops.push(RepoOp::Contribute {
            title: title.to_string(),
            discussion: format!("Entry {i}."),
        });
        ops.push(RepoOp::Comment {
            title: title.to_string(),
            text: format!("Comment {i}."),
        });
        ops.push(RepoOp::Revise {
            title: title.to_string(),
            overview: format!("Overview {i}."),
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

#[test]
fn killed_writer_and_torn_append_recover_to_the_primary() {
    let dir = unique_temp_dir("pipeline-crash");
    let repo = scripted_repository();

    // The full history the primary keeps via its journal sink; the
    // pre-subscription prefix is backfilled into the writer.
    let mut all_events = repo.drain_events();
    let fuse = 7;
    let backend = CrashingBackend::new(EventLogBackend::open(&dir).unwrap(), fuse);
    let writer = Arc::new(BackgroundWriter::on_runtime(
        backend,
        PipelineConfig {
            channel_capacity: 4, // keep batches small so the crash lands mid-stream
            max_group_events: 4,
            ..PipelineConfig::default()
        },
        &Runtime::new(1),
        "writer",
    ));
    writer.enqueue(&all_events);
    repo.subscribe(writer.clone());

    apply_ops(&repo, &script());
    all_events.extend(repo.drain_events());
    assert!(
        all_events.len() > fuse,
        "the script must outlive the fuse ({} events)",
        all_events.len()
    );

    // The crash surfaces at flush (and stays sticky through shutdown).
    let err = writer.flush().unwrap_err();
    assert!(matches!(err, RepoError::Persist(ref m) if m.contains("injected crash")));
    let stats = writer.stats();
    assert!(
        stats.dropped > 0,
        "post-crash events were discarded, not lost silently"
    );
    assert!(writer.shutdown().is_err());
    drop(writer);

    // The final append is torn, as a mid-write kill would leave it.
    torn_append(&dir.join("events-0.jsonl")).unwrap();

    // Recovery, first process: reopen repairs the torn tail and restores
    // exactly the durable prefix the fuse allowed through.
    let mut recovered = EventLogBackend::open(&dir).unwrap();
    let durable = recovered.pending_events().unwrap();
    assert_eq!(durable, fuse, "the crashing batch recorded its prefix");
    assert_eq!(
        recovered.restore().unwrap(),
        replay(RepositorySnapshot::empty(""), &all_events[..durable])
    );

    // The primary still holds the full history: re-record the lost
    // suffix and the backend converges with the live state.
    recovered.record(&all_events[durable..]).unwrap();
    assert_eq!(recovered.restore().unwrap(), repo.snapshot());

    // A replica tailing the healed directory converges on all three
    // materializations.
    let replica = open_replica(&dir).unwrap();
    let snap = repo.snapshot();
    assert_eq!(replica.snapshot(), &snap);
    assert_eq!(replica.index(), &SearchIndex::build(&snap));
    assert!(WikiBx::new().consistent(&snap, replica.site()));

    std::fs::remove_dir_all(&dir).ok();
}

/// The group-commit crash contract: a kill *inside* an open window —
/// after its appends, at its fsync point — must never lose a
/// `flush()`-acknowledged event, and whatever the window does lose is a
/// clean suffix (recovery always yields an exact event *prefix*, never a
/// torn interleaving). The suffix cut is swept over every byte offset
/// the un-fsynced region could have reached disk at.
#[test]
fn mid_window_kill_keeps_acknowledged_events_and_loses_a_clean_suffix() {
    let dir = unique_temp_dir("group-commit-crash");
    let repo = scripted_repository();
    let mut all_events = repo.drain_events();

    // Window timer far beyond the test: only flush/shutdown commit, each
    // on its own thread, so the group boundaries are deterministic. The
    // fsync fuse burns at the *second* commit's fsync point.
    let backend = CrashingBackend::fail_at_flush(EventLogBackend::open(&dir).unwrap(), 1);
    let writer = Arc::new(BackgroundWriter::on_runtime(
        backend,
        PipelineConfig::group_commit(Duration::from_secs(600)),
        &Runtime::new(1),
        "writer",
    ));
    writer.enqueue(&all_events);
    repo.subscribe(writer.clone());

    let ops = script();
    let (first_half, second_half) = ops.split_at(ops.len() / 2);

    // Window 1: half the script, closed by an acknowledged flush.
    apply_ops(&repo, first_half);
    all_events.extend(repo.drain_events());
    writer.flush().unwrap();
    let acknowledged = all_events.len();
    let acked_bytes = std::fs::metadata(dir.join("events-0.jsonl")).unwrap().len() as usize;

    // Window 2: the rest of the script; its fsync point crashes.
    apply_ops(&repo, second_half);
    all_events.extend(repo.drain_events());
    let err = writer.flush().unwrap_err();
    assert!(matches!(err, RepoError::Persist(ref m) if m.contains("fsync point")));
    let stats = writer.stats();
    assert_eq!(
        stats.durable, acknowledged as u64,
        "only window 1 was ever acknowledged"
    );
    assert_eq!(stats.dropped, (all_events.len() - acknowledged) as u64);
    assert!(writer.shutdown().is_err());
    drop(writer);

    let full = std::fs::read(dir.join("events-0.jsonl")).unwrap();
    assert!(
        full.len() > acked_bytes,
        "window 2 really appended before dying"
    );

    // Window 2's bytes were written but never fsynced: a power cut can
    // leave any prefix of them (plus a torn partial line). Window 1's
    // bytes were fsynced and must survive every cut. Sweep the cut
    // across the whole unacknowledged region.
    let case = unique_temp_dir("group-commit-crash-cut");
    let mut cuts: Vec<usize> = (acked_bytes..full.len()).step_by(7).collect();
    cuts.push(full.len()); // the everything-reached-disk case
    for cut in cuts {
        std::fs::create_dir_all(&case).unwrap();
        std::fs::write(case.join("events-0.jsonl"), &full[..cut]).unwrap();
        let recovered = EventLogBackend::open(&case).unwrap();
        let survived = recovered.pending_events().unwrap();
        assert!(
            survived >= acknowledged,
            "cut {cut}: an acknowledged event vanished ({survived} < {acknowledged})"
        );
        assert_eq!(
            recovered.restore().unwrap(),
            replay(RepositorySnapshot::empty(""), &all_events[..survived]),
            "cut {cut}: recovery must be a clean event prefix"
        );
        std::fs::remove_dir_all(&case).ok();
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replica_converges_while_the_writer_crashes_and_is_replaced() {
    let dir = unique_temp_dir("pipeline-replace");
    let repo = scripted_repository();
    let mut all_events = repo.drain_events();

    // First writer: crashes mid-script.
    let fuse = 5;
    let writer = Arc::new(BackgroundWriter::on_runtime(
        CrashingBackend::new(EventLogBackend::open(&dir).unwrap(), fuse),
        PipelineConfig {
            channel_capacity: 2,
            max_group_events: 2,
            ..PipelineConfig::default()
        },
        &Runtime::new(1),
        "writer",
    ));
    writer.enqueue(&all_events);
    repo.subscribe(writer.clone());
    let ops = script();
    let (first_half, second_half) = ops.split_at(ops.len() / 2);
    apply_ops(&repo, first_half);
    all_events.extend(repo.drain_events());
    assert!(writer.flush().is_err(), "fuse burnt during the first half");
    // The repository still holds this sink (sinks cannot be removed), so
    // join the dead writer thread explicitly rather than via Drop.
    assert!(writer.shutdown().is_err());
    drop(writer);
    torn_append(&dir.join("events-0.jsonl")).unwrap();

    // A replica opened against the crashed directory sees the durable
    // prefix — a consistent (if stale) state, never a torn one.
    let mut replica = open_replica(&dir).unwrap();
    assert_eq!(
        replica.snapshot(),
        &replay(RepositorySnapshot::empty(""), &all_events[..fuse])
    );

    // Replacement writer: reopen (repairing the tail), re-enqueue the
    // lost suffix from the primary's journal, keep going.
    let durable = EventLogBackend::open(&dir)
        .unwrap()
        .pending_events()
        .unwrap();
    assert_eq!(durable, fuse);
    let writer = Arc::new(BackgroundWriter::on_runtime(
        EventLogBackend::open(&dir).unwrap(),
        PipelineConfig::default(),
        &Runtime::new(1),
        "writer",
    ));
    writer.enqueue(&all_events[durable..]);
    repo.subscribe(writer.clone());
    apply_ops(&repo, second_half);
    writer.flush().unwrap();
    writer.shutdown().unwrap();

    // Note: the dead first writer is still subscribed (sinks cannot be
    // removed); its accepts drop events into its sticky-error counter and
    // must not disturb the live pipeline.

    catch_up_clean(&mut replica);
    let snap = repo.snapshot();
    assert_eq!(replica.snapshot(), &snap);
    assert_eq!(replica.index(), &SearchIndex::build(&snap));
    assert!(WikiBx::new().consistent(&snap, replica.site()));

    std::fs::remove_dir_all(&dir).ok();
}
