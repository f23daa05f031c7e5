//! A tour of the repository machinery: curation workflow, versioning,
//! search, citations, the wiki bx, persistence and the archival
//! manuscript.
//!
//! Run with: `cargo run --example repository_tour`

use bx::core::event::dirty_set;
use bx::core::index::SearchIndex;
use bx::core::manuscript::{export_manuscript, ManuscriptOptions};
use bx::core::wiki_bx::WikiBx;
use bx::core::{cite, persist, EntryId, EventLogBackend, Principal, StorageBackend, WikiSite};
use bx::examples::standard_repository;
use bx::theory::Bx;

fn main() {
    let repo = standard_repository();

    println!("== curation ==");
    let composers = EntryId::from_title("COMPOSERS");
    println!(
        "COMPOSERS status: {}",
        repo.status(&composers).expect("entry exists")
    );
    // A newcomer registers, comments, and the authors revise.
    repo.register(Principal::member("newcomer"))
        .expect("fresh account");
    repo.comment(
        "newcomer",
        &composers,
        "2014-04-01",
        "Should nationality changes be key-based?",
    )
    .expect("members may comment");
    println!(
        "comments on COMPOSERS: {}",
        repo.latest(&composers)
            .expect("entry exists")
            .comments
            .len()
    );

    println!("\n== versioning ==");
    let dates = EntryId::from_title("DATES");
    for v in repo.versions(&dates).expect("entry exists") {
        println!("DATES has version {v} (still citable)");
    }
    println!(
        "pinned citation: {}",
        cite::cite(&repo, &dates, Some(bx::core::Version::new(0, 1))).expect("old version kept")
    );

    println!("\n== search ==");
    let index = SearchIndex::build(&repo.snapshot());
    for (id, score) in index.query(&["lens"]) {
        println!("  `lens` found in {id} (score {score})");
    }

    println!("\n== the §5.4 wiki bx ==");
    let bx = WikiBx::new();
    let snap = repo.snapshot();
    let site = bx.fwd(&snap, &WikiSite::new());
    println!("published {} example pages", site.example_pages().len());
    println!("consistent: {}", bx.consistent(&snap, &site));
    let back = bx.bwd(&snap, &site);
    println!("round-trip lossless: {}", back == snap);

    println!("\n== the delta stream ==");
    // Everything above was also recorded as typed change events; drain
    // them and catch every downstream materialization up incrementally.
    let mut index = index;
    let mut site = site;
    repo.drain_events(); // history up to here is already materialized
    let dates_id = EntryId::from_title("DATES");
    repo.comment("newcomer", &dates_id, "2014-04-02", "Which calendar?")
        .expect("members may comment");
    let events = repo.drain_events();
    println!("one comment = {} delta event(s)", events.len());
    let snap = repo.snapshot();
    for event in &events {
        index.apply(event); // re-tokenises only the touched entry
    }
    let dirty = dirty_set(&events);
    bx.sync_changed(&snap, &mut site, &dirty); // re-renders only dirty pages
    println!(
        "incremental index ≡ rebuild: {}",
        index == SearchIndex::build(&snap)
    );
    println!(
        "dirty-synced site consistent: {} ({} page(s) re-rendered)",
        bx.consistent(&snap, &site),
        dirty.len()
    );

    println!("\n== persistence ==");
    let json = persist::to_json(&snap).expect("snapshots serialise");
    println!("JSON snapshot: {} bytes", json.len());
    let reloaded = persist::from_json(&json).expect("snapshots deserialise");
    println!("reload lossless: {}", reloaded == snap);

    // The pluggable backends speak deltas too: append the comment's
    // events to an event log and recover via snapshot+replay.
    let dir = std::env::temp_dir().join(format!("bx-tour-eventlog-{}", std::process::id()));
    let mut backend = EventLogBackend::open(&dir).expect("event log opens");
    backend.checkpoint(&snap).expect("checkpoint");
    repo.comment("newcomer", &dates_id, "2014-04-03", "Julian or Gregorian?")
        .expect("members may comment");
    backend.record(&repo.drain_events()).expect("append deltas");
    backend.flush_durable().expect("fsync deltas");
    let recovered = backend.restore().expect("snapshot+replay");
    println!(
        "event-log backend recovers the live state: {}",
        recovered == repo.snapshot()
    );
    std::fs::remove_dir_all(&dir).ok();

    println!("\n== archival manuscript ==");
    let text = export_manuscript(&snap, ManuscriptOptions::default());
    let preview: String = text.lines().take(18).collect::<Vec<_>>().join("\n");
    println!("{preview}\n… ({} lines total)", text.lines().count());
}
