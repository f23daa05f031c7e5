//! Delta equivalence, property-tested: for any random mutation script,
//! every delta-driven materialization agrees with its from-scratch
//! counterpart —
//!
//! * `SearchIndex::apply` over the event stream ≡ `SearchIndex::build`
//!   from the resulting snapshot;
//! * `WikiBx::sync_changed` over the event dirty set ≡ the total
//!   `WikiBx::fwd`;
//! * event-log replay (and the other `StorageBackend`s) ≡ the JSON
//!   snapshot file restore.

use bx::core::event::{dirty_set, replay};
use bx::core::index::SearchIndex;
use bx::core::storage::{EventLogBackend, MemoryBackend, StorageBackend};
use bx::core::wiki_bx::WikiBx;
use bx::core::{persist, Repository, WikiSite};
use bx::theory::Bx;
use bx_testkit::ops::{apply_op, arb_ops, scripted_repository, unique_temp_dir};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental index maintenance is exactly rebuild-from-snapshot, at
    /// every intermediate point of the script, not just at the end.
    #[test]
    fn index_apply_equals_build(ops in arb_ops(24)) {
        let repo = scripted_repository();
        let mut incremental = SearchIndex::build(&repo.snapshot());
        for event in repo.drain_events() {
            // The pre-script events (founding, registrations) are account
            // events; applying them anyway must be a no-op.
            incremental.apply(&event);
        }
        for op in &ops {
            apply_op(&repo, op);
            for event in repo.drain_events() {
                incremental.apply(&event);
            }
            prop_assert_eq!(&incremental, &SearchIndex::build(&repo.snapshot()));
        }
    }

    /// Dirty-tracked wiki sync lands on the same site as the total fwd,
    /// for every batch boundary the script produces.
    #[test]
    fn sync_changed_equals_fwd(ops in arb_ops(24)) {
        let bx = WikiBx::new();
        let repo = scripted_repository();
        let mut site = bx.fwd(&repo.snapshot(), &WikiSite::new());
        repo.drain_events();
        // Sync after every op: maximally many small dirty batches.
        for op in &ops {
            apply_op(&repo, op);
            // Drain-first, snapshot-second: the order `drain_events` documents
            // as safe under concurrency.
            let dirty = dirty_set(&repo.drain_events());
            let snap = repo.snapshot();
            let total = bx.fwd(&snap, &site);
            bx.sync_changed(&snap, &mut site, &dirty);
            prop_assert_eq!(&site, &total);
            prop_assert!(bx.consistent(&snap, &site));
        }
    }

    /// Both storage backends, fed the same event stream, restore the same
    /// state as the archival snapshot file saved at the same points — and
    /// that state round-trips the JSON snapshot path.
    #[test]
    fn backends_agree_with_snapshot_restore(ops in arb_ops(16)) {
        let repo = scripted_repository();
        let mut memory = MemoryBackend::new();
        let json_dir = unique_temp_dir("delta-eq-json");
        let json = json_dir.join("repo.json");
        let log_dir = unique_temp_dir("delta-eq-log");
        let mut log = EventLogBackend::open(&log_dir).unwrap();

        // Record in per-op batches, checkpointing the log backend midway
        // to exercise snapshot+replay recovery (not just pure replay).
        let checkpoint_at = ops.len() / 2;
        let events = repo.drain_events();
        memory.record(&events).unwrap();
        persist::save_file(&repo, &json).unwrap();
        log.record(&events).unwrap();
        for (i, op) in ops.iter().enumerate() {
            apply_op(&repo, op);
            let events = repo.drain_events();
            memory.record(&events).unwrap();
            persist::save_file(&repo, &json).unwrap();
            log.record(&events).unwrap();
            if i == checkpoint_at {
                log.checkpoint(&repo.snapshot()).unwrap();
            }
        }

        let expected = repo.snapshot();
        // Replay of the full journal (drained incrementally above) is what
        // the memory backend holds; the log backend mixes checkpoint and
        // replay; the snapshot file holds the last saved state whole.
        prop_assert_eq!(memory.restore().unwrap(), expected.clone());
        prop_assert_eq!(persist::load_file(&json).unwrap().snapshot(), expected.clone());
        prop_assert_eq!(log.restore().unwrap(), expected.clone());
        // …and they agree with the plain JSON snapshot round trip.
        let json_restore = persist::from_json(&persist::to_json(&expected).unwrap()).unwrap();
        prop_assert_eq!(json_restore, expected);

        std::fs::remove_dir_all(&json_dir).ok();
        std::fs::remove_dir_all(&log_dir).ok();
    }

    /// The journal alone reconstructs the live repository from nothing —
    /// and the reconstruction is again a working repository.
    #[test]
    fn journal_replay_reconstructs_live_state(ops in arb_ops(24)) {
        let repo = scripted_repository();
        let mut journal = repo.drain_events();
        for op in &ops {
            apply_op(&repo, op);
            journal.extend(repo.drain_events());
        }
        let replayed = replay(bx::core::repo::RepositorySnapshot::empty(""), &journal);
        prop_assert_eq!(&replayed, &repo.snapshot());
        let revived = Repository::from_snapshot(replayed);
        prop_assert_eq!(revived.len(), repo.len());
    }
}
