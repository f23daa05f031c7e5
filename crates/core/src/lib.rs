//! # bx-core — the curated repository of bx examples
//!
//! An executable realisation of Cheney, McKinna, Stevens & Gibbons,
//! *"Towards a Repository of Bx Examples"* (BX 2014): the repository
//! itself, as a library.
//!
//! * [`template`] — the standard entry template of §3 (Title, Version,
//!   Type, Overview, Models, Consistency, Consistency Restoration,
//!   Properties?, Variants?, Discussion, References?, Authors,
//!   Reviewers?, Comments, Artefacts?), with validation of the paper's
//!   side conditions (e.g. PRECISE and SKETCH are mutually exclusive);
//! * [`version`] — linear version numbering: `0.x` while provisional,
//!   `≥ 1.0` once reviewed; old versions are never discarded;
//! * [`principal`] / [`curation`] — the three-level curatorial structure
//!   of §5.1: registered members may comment, named reviewers approve,
//!   curators control the repository;
//! * [`repo`] — the repository: stable identifiers, full version history,
//!   permission-checked workflows over a lock-striped sharded store;
//! * [`event`] — the typed change-event stream every mutation records,
//!   pushed at commit time to every subscribed [`event::EventSink`];
//!   downstream layers consume these deltas instead of whole snapshots;
//! * [`pipeline`] — the background durability pipeline: a writer task
//!   behind a bounded channel drains events into any storage backend,
//!   with explicit flush and drop-shutdown semantics;
//! * [`replica`] — the read node: [`replica::Federation`] tails the
//!   shipped event-log directories of N independent primaries and
//!   incrementally maintains one namespaced merged snapshot, search index
//!   and wiki site (a plain read replica is a federation of one
//!   [`replica::SourceId::identity`] source), and
//!   [`replica::ReplicaDaemon`] polls it as a runtime tenant with clean
//!   start/stop and lag stats;
//! * [`runtime`] — the one source of worker threads and the one health
//!   channel: every background tenant and every parallel restore
//!   (chunked decode, sharded replay, parallel derived-state rebuild)
//!   runs on a caller's [`Runtime`];
//! * [`cite`] — citation formats for entries and the repository (§5.2);
//! * [`index`] — keyword search with type/property filters (§5.2
//!   findability);
//! * [`wiki`] — the wiki hosting model: pages with retained revisions,
//!   rendering entries to wiki markup and parsing them back;
//! * [`wiki_bx`] — §5.4 dogfooded: consistency between the structured
//!   repository and its wiki rendering maintained by a bidirectional
//!   transformation built on `bx-theory`;
//! * [`manuscript`] — the archival "citable technical report" export of
//!   §5.2;
//! * [`persist`] — the wiki-markup-independent persistent form (JSON);
//! * [`storage`] — pluggable persistence behind [`storage::StorageBackend`]:
//!   in-memory, and an append-only event log (JSONL or binary) with
//!   snapshot+replay recovery;
//! * [`supervise`] — per-source fault supervision for the federation:
//!   circuit-breaker health states, deterministic retry/backoff, and
//!   quarantine-and-salvage recovery from corruption.

pub mod binlog;
pub mod cite;
pub mod curation;
pub mod error;
pub mod event;
pub mod index;
pub mod manuscript;
pub mod persist;
pub mod pipeline;
pub mod principal;
pub mod replica;
pub mod repo;
pub mod runtime;
pub mod storage;
pub mod supervise;
pub mod template;
pub mod version;
pub mod wiki;
pub mod wiki_bx;

pub use binlog::BinaryLogBackend;
pub use curation::EntryStatus;
pub use error::RepoError;
pub use event::{EventSink, RepoEvent};
pub use manuscript::{export_manuscript, ManuscriptOptions};
pub use pipeline::{BackgroundWriter, PipelineConfig, PipelineStats};
pub use principal::{Principal, Role};
pub use replica::{
    federate_snapshots, DaemonConfig, DaemonStats, Federation, ReplicaDaemon, SourceId,
};
pub use repo::{EntryId, Repository};
pub use runtime::{ComponentHealth, HealthReport, PoolStats, Runtime, RuntimeHealth, SerialTask};
pub use storage::{
    AutoCompactingBinaryLog, AutoCompactingEventLog, CompactionPolicy, EventLogBackend,
    GenerationLog, MemoryBackend, StorageBackend, TailRepaired,
};
pub use supervise::{RecoveryPolicy, RetryPolicy, SalvageReport, SourceHealth, SourceStatus};
pub use template::{
    Artefact, ArtefactKind, Comment, EntryBuilder, ExampleEntry, ExampleType, Reference,
    RestorationSpec, VariantPoint,
};
pub use version::Version;
pub use wiki::WikiSite;

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared helpers for bx-core's own unit tests.

    use std::path::PathBuf;

    /// A fresh, pre-cleaned, per-process-and-call temp directory (not
    /// created — the backends under test create it themselves). Mirrors
    /// `bx_testkit::ops::unique_temp_dir`, which unit tests here cannot
    /// use because bx-testkit depends on bx-core.
    pub(crate) fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bx-core-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
}
