//! A federated serving tier: two independent primaries (say, the EU and
//! US mirrors of the examples repository) each ship their own event log;
//! one federation node tails both into a single namespaced wiki + search
//! index, and a `ReplicaDaemon` polls it in the background while serving
//! federated query, citation and manuscript reads.
//!
//! Run with: `cargo run --example federated_wiki`

use std::time::Duration;

use bx::core::pipeline::{BackgroundWriter, PipelineConfig};
use bx::core::replica::{DaemonConfig, Federation, ReplicaDaemon, SourceId};
use bx::core::storage::{AutoCompactingEventLog, CompactionPolicy};
use bx::core::{
    EntryId, ExampleEntry, ExampleType, ManuscriptOptions, Principal, Repository, Runtime,
};
use std::sync::Arc;

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

/// One primary: a repository with a background durability writer shipping
/// an auto-compacting event log into `dir`.
fn primary(name: &str, dir: &std::path::Path) -> (Repository, Arc<BackgroundWriter>) {
    let repo = Repository::found(name, vec![Principal::curator("curator")]);
    let backend = AutoCompactingEventLog::open(
        dir,
        CompactionPolicy {
            checkpoint_every: 6, // small, so the federation re-bases visibly
        },
    )
    .expect("event log opens");
    let writer = Arc::new(BackgroundWriter::on_runtime(
        backend,
        PipelineConfig::default(),
        &Runtime::new(1),
        "writer",
    ));
    repo.subscribe_with_backfill(writer.clone());
    repo.register(Principal::member("alice")).expect("fresh");
    (repo, writer)
}

fn main() {
    let base = std::env::temp_dir().join(format!("bx-federated-wiki-{}", std::process::id()));
    let eu_dir = base.join("eu");
    let us_dir = base.join("us");
    std::fs::remove_dir_all(&base).ok();

    // == two independent primaries ==
    let (eu, eu_writer) = primary("bx-examples-eu", &eu_dir);
    let (us, us_writer) = primary("bx-examples-us", &us_dir);

    // Both primaries publish a COMPOSERS entry — the classic collision a
    // single-directory replica could not hold. Each also has entries of
    // its own.
    eu.contribute("alice", entry("COMPOSERS", "Composers, the EU curation."))
        .expect("lands");
    eu.contribute("alice", entry("DATES", "Date format synchronisation."))
        .expect("lands");
    us.contribute("alice", entry("COMPOSERS", "Composers, the US curation."))
        .expect("lands");
    eu_writer.flush().expect("eu durable");
    us_writer.flush().expect("us durable");

    // == the federation node ==
    let federation = Federation::open(
        "The Federated Bx Examples Repository",
        vec![
            (SourceId::new("eu"), eu_dir.clone()),
            (SourceId::new("us"), us_dir.clone()),
        ],
    )
    .expect("federation opens");
    println!(
        "federation: {} entries from {} sources",
        federation.snapshot().records.len(),
        federation.source_ids().len()
    );
    let mut daemon = ReplicaDaemon::spawn_on(
        federation,
        DaemonConfig {
            poll_interval: Duration::from_millis(10),
        },
        &Runtime::new(1),
        "daemon",
    );

    // Federated search: both COMPOSERS entries, namespaced apart.
    let hits = daemon.query(&["composers"]);
    println!("federated search `composers`:");
    for (id, score) in &hits {
        println!("  {id} (score {score})");
    }

    // Citations follow the namespaced page URLs.
    println!("citation listing:");
    for citation in daemon.citations() {
        println!("  {citation}");
    }

    // == writes keep flowing while the daemon serves ==
    let composers = EntryId::from_title("COMPOSERS");
    let mut revised = eu.latest(&composers).expect("exists");
    revised.overview = "Composers, now with key-based matching.".to_string();
    eu.revise("alice", &composers, revised)
        .expect("authors revise");
    us.comment("alice", &composers, "2014-04-02", "Which key, though?")
        .expect("members comment");
    eu_writer.flush().expect("eu durable");
    us_writer.flush().expect("us durable");

    daemon.force_catch_up().expect("both sources present");
    let stats = daemon.stats();
    println!(
        "daemon: {} polls, {} events applied, {} rebases, lag {:?}",
        stats.polls,
        stats.events_applied,
        stats.rebases,
        daemon.with_federation(|f| f.lag())
    );
    daemon.with_federation(|federation| {
        let page = federation
            .site()
            .current("examples:eu/composers")
            .expect("the EU page is served");
        println!(
            "eu/composers page tracks the revision: {}",
            page.contains("key-based matching")
        );
        println!(
            "us/composers page carries the comment: {}",
            federation
                .site()
                .current("examples:us/composers")
                .expect("the US page is served")
                .contains("Which key, though?")
        );
    });

    // The archival manuscript over the merged state: distinct BibTeX
    // keys even for the colliding titles.
    let manuscript = daemon.export_manuscript(ManuscriptOptions::default());
    let keys: Vec<&str> = manuscript
        .lines()
        .filter(|l| l.starts_with("@misc{"))
        .collect();
    println!("manuscript BibTeX keys: {keys:?}");

    // == clean teardown: no orphan threads ==
    let stats = daemon.stop();
    println!(
        "daemon stopped cleanly after {} polls (running: {})",
        stats.polls,
        daemon.is_running()
    );
    eu_writer.shutdown().expect("orderly drain");
    us_writer.shutdown().expect("orderly drain");
    std::fs::remove_dir_all(&base).ok();
}
