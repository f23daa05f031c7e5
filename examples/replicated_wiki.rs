//! Replication by shipping the event log: a primary repository with a
//! background durability writer, and a read replica that tails the log
//! directory and serves a converging wiki + search index. The replica is
//! a federation of one identity source: ids pass through unchanged.
//!
//! Run with: `cargo run --example replicated_wiki`

use std::sync::Arc;
use std::time::Duration;

use bx::core::pipeline::{BackgroundWriter, PipelineConfig};
use bx::core::replica::{Federation, SourceId};
use bx::core::storage::{AutoCompactingEventLog, CompactionPolicy};
use bx::core::{EntryId, ExampleEntry, ExampleType, Principal, Repository, Runtime};

fn entry(title: &str, overview: &str) -> ExampleEntry {
    ExampleEntry::builder(title)
        .of_type(ExampleType::Precise)
        .overview(overview)
        .models("Two model spaces, as ever.")
        .consistency("The usual relation.")
        .restoration("Forward fix.", "Backward fix.")
        .discussion("Discussed at length.")
        .author("alice")
        .build()
        .expect("valid entry")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("bx-replicated-wiki-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // == the primary ==
    // Found a repository and attach the background durability pipeline:
    // an event-log backend under an aggressive auto-compaction policy,
    // written by a runtime task behind a bounded channel.
    let primary = Repository::found("bx-examples", vec![Principal::curator("curator")]);
    let backend = AutoCompactingEventLog::open(
        &dir,
        CompactionPolicy {
            // Small on purpose: the second flush below crosses this
            // threshold, so the replica demonstrably re-bases across a
            // checkpoint instead of only tailing one generation.
            checkpoint_every: 6,
        },
    )
    .expect("event log opens");
    // Group-commit durability: events queued while one commit runs
    // share the next `sync_all` instead of paying one each. `flush()`
    // commits *our* events on this thread and blocks until they are
    // durable; the writer task commits what no flush takes within 2 ms.
    let writer = Arc::new(BackgroundWriter::on_runtime(
        backend,
        PipelineConfig::group_commit(Duration::from_millis(2)),
        &Runtime::new(1),
        "writer",
    ));
    // Plain subscribe() is forward-only; subscribe_with_backfill also
    // hands the sink the pending history (here: the founding event),
    // atomically with the subscription.
    primary.subscribe_with_backfill(writer.clone());

    primary
        .register(Principal::member("alice"))
        .expect("fresh account");
    let composers = primary
        .contribute("alice", entry("COMPOSERS", "Composers and nationalities."))
        .expect("contribution lands");
    primary
        .contribute("alice", entry("DATES", "Date format synchronisation."))
        .expect("contribution lands");

    // Durability point: everything enqueued so far is on disk after this.
    writer.flush().expect("background writer healthy");
    let stats = writer.stats();
    println!(
        "primary: {} entries, {} events durable over {} group commit(s)",
        primary.len(),
        stats.durable,
        stats.fsyncs,
    );

    // == the replica ==
    // In production this directory would be rsynced / NFS-shared; here the
    // replica tails it in place. It serves wiki pages and search without
    // ever touching the primary. A one-source federation of the identity
    // source passes ids through; left unnamed, it takes the primary's
    // name from the log.
    let mut replica =
        Federation::open("", vec![(SourceId::identity(), dir.clone())]).expect("replica opens");
    let (_, generation, applied) = replica.positions()[0];
    println!(
        "replica: {} entries at position {:?}",
        replica.snapshot().records.len(),
        (generation, applied)
    );
    let page = replica
        .site()
        .current(&composers.page_name())
        .expect("replica serves the page");
    println!(
        "replica serves `{}` ({} markup lines)",
        composers.page_name(),
        page.lines().count()
    );
    println!(
        "replica search `composers`: {:?}",
        replica.query(&["composers"])
    );

    // == edits converge ==
    let mut revised = primary.latest(&composers).expect("entry exists");
    revised.overview = "Composers, now with key-based matching.".to_string();
    primary
        .revise("alice", &composers, revised)
        .expect("authors revise");
    primary
        .comment(
            "alice",
            &EntryId::from_title("DATES"),
            "2014-04-02",
            "Which calendar?",
        )
        .expect("members comment");

    writer.flush().expect("background writer healthy");
    let progress = replica.catch_up().expect("replica tails");
    if let Some((_, error)) = progress.errors.first() {
        panic!("replica tails: {error}");
    }
    println!(
        "replica caught up: {} tailed event(s), rebased across a checkpoint: {}",
        progress.events_applied,
        progress.rebases == 1
    );
    println!(
        "replica page tracks the revision: {}",
        replica
            .site()
            .current(&composers.page_name())
            .expect("page present")
            .contains("key-based matching")
    );
    println!(
        "replica state == primary state: {}",
        replica.snapshot() == &primary.snapshot()
    );

    writer.shutdown().expect("orderly drain");
    // With BX_WIKI_KEEP_DIR set, the event-log directory is left on disk
    // (its path printed on the last line) so a follow-up tool can read
    // it — CI runs `bx_lint` over it to assert the example's log
    // restores to a diagnostics-clean repository.
    if std::env::var_os("BX_WIKI_KEEP_DIR").is_some() {
        println!("event log kept at: {}", dir.display());
    } else {
        std::fs::remove_dir_all(&dir).ok();
    }
}
