//! The multi-primary property harness: random interleaved mutation
//! scripts across N independent primaries, each shipping its own
//! event-log directory, with storage faults injected along the way —
//! the substrate `tests/federation_convergence.rs` drives a
//! [`bx_core::Federation`] against.
//!
//! A [`FederationScript`] holds one [`SourcePlan`] per primary (its
//! [`RepoOp`] script plus a fault plan: auto-compaction cadence, a
//! writer kill fuse, a torn final append) and an interleaving schedule.
//! [`drive_federation`] executes it: every primary is a real
//! [`Repository`] whose drained events are recorded — through a
//! [`CrashingBackend`] fuse — into its directory, ops interleaved across
//! sources per the schedule; a tripped fuse "kills the writer" (losing
//! the non-durable suffix of that batch, exactly like a real crash) and
//! a fresh writer process reopens the directory and carries on. The
//! returned per-source folds are the **durable** states — what any
//! correct reader of those directories, and therefore the federation's
//! merged materializations, must converge to.
//!
//! [`open_replica`] and [`catch_up_clean`] drive the one-source case: a
//! plain read replica is a federation of the identity source.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use bx_core::binlog::is_binary_generation;
use bx_core::replica::{Federation, FederationCatchUp, SourceId};
use bx_core::repo::RepositorySnapshot;
use bx_core::storage::{
    AutoCompactingBinaryLog, AutoCompactingEventLog, CompactionPolicy, EventLogBackend,
    StorageBackend,
};
use bx_core::{BinaryLogBackend, RepoError, Repository};

use crate::faults::{torn_append, torn_append_binary, CrashingBackend};
use crate::ops::{apply_op, arb_ops, scripted_repository, RepoOp};

/// One primary's script and fault plan.
#[derive(Debug, Clone)]
pub struct SourcePlan {
    /// The curation ops this primary's cast performs, in order.
    pub ops: Vec<RepoOp>,
    /// `Some(n)`: write through an [`AutoCompactingEventLog`] that
    /// checkpoints every `n` events (so the reader must re-base across
    /// generations); `None`: a plain append-only [`EventLogBackend`].
    pub compaction: Option<usize>,
    /// `Some(n)`: the writer dies while recording event `n + 1`
    /// ([`CrashingBackend`] fuse) — the durable prefix of that batch
    /// survives, the rest is lost, and a fresh writer reopens the
    /// directory for the remaining ops.
    pub kill_after_events: Option<usize>,
    /// Leave a torn half-line (a crash mid-`write(2)`) at the end of the
    /// current generation once the script is done. Readers must ignore
    /// it.
    pub torn_tail: bool,
    /// Write this source's directory in the binary segmented format
    /// ([`bx_core::BinaryLogBackend`]) instead of JSONL — federations
    /// must converge over mixed-format source sets, since every source
    /// picks its own format independently.
    pub binary: bool,
}

/// A whole multi-primary run: one plan per source plus the interleaving.
#[derive(Debug, Clone)]
pub struct FederationScript {
    /// Per-source plans, in source order.
    pub sources: Vec<SourcePlan>,
    /// Interleaving schedule: at each step, entry `i % schedule.len()`
    /// picks (mod the number of sources that still have ops) which
    /// source performs its next op. An empty schedule means round-robin.
    pub schedule: Vec<usize>,
}

/// A random fault-free source plan of up to `max_ops` ops (compose
/// faults on top, or use [`arb_federation_script`] for a fully random
/// plan).
pub fn arb_source_plan(max_ops: usize) -> impl Strategy<Value = SourcePlan> {
    arb_ops(max_ops).prop_map(|ops| SourcePlan {
        ops,
        compaction: None,
        kill_after_events: None,
        torn_tail: false,
        binary: false,
    })
}

/// A random `n_sources`-primary script with independently random fault
/// plans: each source may or may not compact, be killed, or end torn.
pub fn arb_federation_script(
    n_sources: usize,
    max_ops: usize,
) -> impl Strategy<Value = FederationScript> {
    let plan = (
        arb_ops(max_ops),
        prop_oneof![Just(None), (1usize..8).prop_map(Some)],
        prop_oneof![Just(None), (0usize..16).prop_map(Some)],
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(
            |(ops, compaction, kill_after_events, torn_tail, binary)| SourcePlan {
                ops,
                compaction,
                kill_after_events,
                torn_tail,
                binary,
            },
        );
    (
        prop::collection::vec(plan, n_sources..=n_sources),
        prop::collection::vec(0usize..64, 1..48),
    )
        .prop_map(|(sources, schedule)| FederationScript { sources, schedule })
}

fn open_backend(dir: &Path, compaction: Option<usize>, binary: bool) -> Box<dyn StorageBackend> {
    match (binary, compaction) {
        (true, Some(checkpoint_every)) => Box::new(
            AutoCompactingBinaryLog::open_with(dir, CompactionPolicy { checkpoint_every })
                .expect("binary log opens"),
        ),
        (true, None) => Box::new(BinaryLogBackend::open(dir).expect("binary log opens")),
        (false, Some(checkpoint_every)) => Box::new(
            AutoCompactingEventLog::open(dir, CompactionPolicy { checkpoint_every })
                .expect("event log opens"),
        ),
        (false, None) => Box::new(EventLogBackend::open(dir).expect("event log opens")),
    }
}

/// The format this directory will actually be written in: a directory
/// that already holds a log keeps its format (the backends refuse
/// cross-format opens — a second driving round must not flip it); a
/// fresh directory takes the plan's pick.
fn effective_binary(dir: &Path, requested: bool) -> bool {
    let Ok((_, generation)) = EventLogBackend::read_state_in(dir) else {
        return requested;
    };
    if is_binary_generation(&generation) {
        // `read_state_in` only names a binary generation when a manifest
        // says so or binary segments are on disk — either way, content.
        return true;
    }
    let existing = dir.join("checkpoint.json").exists() || dir.join(&generation).exists();
    if existing {
        false
    } else {
        requested
    }
}

/// One primary being driven: its live repository and current writer
/// "process" (which the fault plan may kill and restart).
struct Driven {
    repo: Repository,
    writer: CrashingBackend<Box<dyn StorageBackend>>,
    next_op: usize,
    /// The format the directory is actually in (existing content wins
    /// over the plan's request).
    binary: bool,
}

impl Driven {
    fn start(dir: &Path, plan: &SourcePlan) -> Driven {
        let binary = effective_binary(dir, plan.binary);
        Driven {
            repo: scripted_repository(),
            // An unkillable writer gets an effectively infinite fuse.
            writer: CrashingBackend::new(
                open_backend(dir, plan.compaction, binary),
                plan.kill_after_events.unwrap_or(usize::MAX),
            ),
            next_op: 0,
            binary,
        }
    }

    /// Apply the next op, then record and flush its events; on a tripped
    /// fuse the non-durable suffix is lost and a fresh writer reopens the
    /// directory (fuse already burned — a kill fires once per plan).
    fn step(&mut self, dir: &Path, plan: &SourcePlan) {
        apply_op(&self.repo, &plan.ops[self.next_op]);
        self.next_op += 1;
        let events = self.repo.drain_events();
        let recorded = self.writer.record(&events);
        if recorded.and_then(|()| self.writer.flush_durable()).is_err() {
            self.writer =
                CrashingBackend::new(open_backend(dir, plan.compaction, self.binary), usize::MAX);
        }
    }

    fn done(&self, plan: &SourcePlan) -> bool {
        self.next_op >= plan.ops.len()
    }
}

/// Execute `script` against one event-log directory per source,
/// interleaving ops per the schedule and injecting the planned faults.
/// Returns each source's **durable** fold (read non-mutatingly via
/// [`EventLogBackend::restore_dir`], torn tails ignored) — the
/// per-source states a federation over these directories must converge
/// to. Directories may already hold events from an earlier round: the
/// fresh primaries' streams simply append, and the durable fold remains
/// the single source of truth.
pub fn drive_federation(dirs: &[PathBuf], script: &FederationScript) -> Vec<RepositorySnapshot> {
    assert_eq!(
        dirs.len(),
        script.sources.len(),
        "one directory per source plan"
    );
    let mut driven: Vec<Driven> = dirs
        .iter()
        .zip(&script.sources)
        .map(|(dir, plan)| Driven::start(dir, plan))
        .collect();

    // Interleave: each schedule draw picks among the sources that still
    // have ops, so every op runs exactly once in a schedule-shaped order.
    let mut step = 0usize;
    loop {
        let live: Vec<usize> = (0..driven.len())
            .filter(|&i| !driven[i].done(&script.sources[i]))
            .collect();
        if live.is_empty() {
            break;
        }
        let draw = script
            .schedule
            .get(step % script.schedule.len().max(1))
            .copied()
            .unwrap_or(step);
        let chosen = live[draw % live.len()];
        driven[chosen].step(&dirs[chosen], &script.sources[chosen]);
        step += 1;
    }

    // Inject the torn tails, then read the durable folds without
    // repairing anything (the federation must face the same bytes).
    dirs.iter()
        .zip(&script.sources)
        .map(|(dir, plan)| {
            if plan.torn_tail {
                let (_, generation) =
                    EventLogBackend::read_state_in(dir).expect("driven directory reads");
                // Tear in the directory's actual format: JSONL torn
                // bytes on a binary segment would read as corruption,
                // not a torn tail.
                if is_binary_generation(&generation) {
                    torn_append_binary(dir, &generation).expect("torn frame lands");
                } else {
                    torn_append(&dir.join(generation)).expect("torn append lands");
                }
            }
            EventLogBackend::restore_dir(dir).expect("durable fold reads")
        })
        .collect()
}

/// A plain read replica of the primary logging into `dir`: an unnamed
/// [`Federation`] of the one [`SourceId::identity`] source, which takes
/// the primary's name from its log, so once caught up its snapshot
/// equals the primary's.
pub fn open_replica(dir: &Path) -> Result<Federation, RepoError> {
    Federation::open("", vec![(SourceId::identity(), dir.to_path_buf())])
}

/// One catch-up pass that must not fail: panics with the typed errors
/// of any source the pass could not poll (a supervised pass reports
/// them in [`FederationCatchUp::errors`] instead of returning `Err`).
pub fn catch_up_clean(federation: &mut Federation) -> FederationCatchUp {
    let outcome = federation.catch_up().expect("a catch-up pass never aborts");
    assert!(
        outcome.errors.is_empty(),
        "sources failed: {:?}",
        outcome.errors
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::unique_temp_dir;

    fn contribute(title: &str) -> RepoOp {
        RepoOp::Contribute {
            title: title.into(),
            discussion: "Driven.".into(),
        }
    }

    #[test]
    fn driver_interleaves_and_injects_the_planned_faults() {
        let dirs = vec![
            unique_temp_dir("fed-drive-a"),
            unique_temp_dir("fed-drive-b"),
            unique_temp_dir("fed-drive-c"),
            unique_temp_dir("fed-drive-d"),
        ];
        let script = FederationScript {
            sources: vec![
                SourcePlan {
                    ops: vec![contribute("COMPOSERS"), contribute("DATES")],
                    compaction: Some(2),
                    kill_after_events: None,
                    torn_tail: false,
                    binary: false,
                },
                SourcePlan {
                    // The kill fires inside the first record (founding +
                    // cast + the first contribution, 5 events, fuse 2):
                    // COMPOSERS is lost with the batch suffix, DATES
                    // lands via the restarted writer.
                    ops: vec![contribute("COMPOSERS"), contribute("DATES")],
                    compaction: None,
                    kill_after_events: Some(2),
                    torn_tail: false,
                    binary: false,
                },
                SourcePlan {
                    ops: vec![contribute("FAMILIES")],
                    compaction: None,
                    kill_after_events: None,
                    torn_tail: true,
                    binary: false,
                },
                SourcePlan {
                    // A binary-format primary in the same federation,
                    // with both compaction and a torn tail of its own.
                    ops: vec![contribute("UML2RDBMS"), contribute("DISTANCE")],
                    compaction: Some(2),
                    kill_after_events: None,
                    torn_tail: true,
                    binary: true,
                },
            ],
            schedule: vec![2, 0, 1, 0, 3],
        };
        let expected = drive_federation(&dirs, &script);
        assert_eq!(expected.len(), 4);

        // Source 0 compacted: a checkpoint manifest exists and the fold
        // holds both entries.
        assert!(dirs[0].join("checkpoint.json").exists());
        assert_eq!(expected[0].records.len(), 2);

        // Source 1 lost its kill batch's suffix (COMPOSERS was never
        // durable) but the restarted writer recorded DATES.
        assert_eq!(expected[1].records.len(), 1);
        assert!(expected[1]
            .records
            .contains_key(&bx_core::EntryId::from_title("DATES")));

        // Source 2 ends in a torn half-line which the fold ignored.
        let (_, generation) = EventLogBackend::read_state_in(&dirs[2]).unwrap();
        let bytes = std::fs::read(dirs[2].join(&generation)).unwrap();
        assert!(!bytes.ends_with(b"\n"), "the torn tail is really there");
        assert_eq!(expected[2].records.len(), 1);

        // Source 3 is binary: the manifest names a `.bin` generation,
        // its live segment really ends in a torn frame prefix, and the
        // fold still holds both entries.
        let (_, generation) = EventLogBackend::read_state_in(&dirs[3]).unwrap();
        assert!(is_binary_generation(&generation));
        assert!(dirs[3].join("checkpoint.json").exists());
        let segments = bx_core::binlog::segment_files(&dirs[3], &generation).unwrap();
        let bytes = std::fs::read(dirs[3].join(segments.last().unwrap())).unwrap();
        assert!(
            bytes.ends_with(&bx_core::binlog::torn_frame_bytes()),
            "the binary torn tail is really there"
        );
        assert_eq!(expected[3].records.len(), 2);

        // Driving is repair-free: a second read sees identical folds.
        for (dir, fold) in dirs.iter().zip(&expected) {
            assert_eq!(&EventLogBackend::restore_dir(dir).unwrap(), fold);
        }
        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn a_reused_directory_keeps_its_format_across_rounds() {
        let dirs = vec![unique_temp_dir("fed-drive-sticky")];
        let plan = |binary| FederationScript {
            sources: vec![SourcePlan {
                ops: vec![contribute("COMPOSERS")],
                compaction: None,
                kill_after_events: None,
                torn_tail: false,
                binary,
            }],
            schedule: Vec::new(),
        };
        drive_federation(&dirs, &plan(true));
        // Round two asks for JSONL, but the backends refuse cross-format
        // opens — the directory's established binary format wins.
        drive_federation(&dirs, &plan(false));
        let (_, generation) = EventLogBackend::read_state_in(&dirs[0]).unwrap();
        assert!(is_binary_generation(&generation));
        std::fs::remove_dir_all(&dirs[0]).ok();
    }
}
