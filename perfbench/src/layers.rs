//! Per-layer measurements of a traced epoch.
//!
//! Layers the client calls directly (repository, pipeline, catch-up,
//! lint wait, query, open) are timed live by the operation loop. The
//! layers that run *inside* a catch-up pass — fold, `SearchIndex::apply`,
//! `WikiBx::sync_changed` and lint's `Linter::apply` — are timed here by
//! replaying what a recording sink captured from each pass, through each
//! layer's public function, on a copy of the state from before the
//! epoch's measured phase. The rest are side measurements on the epoch's
//! final state: the binlog codec, checkpoint, manifest codec, state
//! reads, index build and wiki publish.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bx_core::binlog::{decode_event, encode_event, encode_frame};
use bx_core::event::apply_event;
use bx_core::index::{entries_tokenized, SearchIndex};
use bx_core::repo::RepositorySnapshot;
use bx_core::storage::{AutoCompactingBinaryLog, CompactionPolicy, StorageBackend};
use bx_core::wiki::render::entries_rendered;
use bx_core::wiki_bx::WikiBx;
use bx_core::{persist, EntryId, EventLogBackend, RepoEvent, WikiSite};
use bx_lint::{CheckCatalog, Linter};

use crate::node::{Format, Node};
use crate::stats::Samples;
use crate::trace::{Captured, Tracer};

/// Every per-layer measurement of a run.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub repo_write_us: Samples,
    pub flush_us: Samples,
    pub lint_wait_us: Samples,
    pub poll_idle_us: Samples,
    pub poll_busy_us: Samples,
    pub events_per_poll: Samples,
    pub rebase_ms: Samples,
    pub query_federated_us: Samples,
    pub query_source_us: Samples,
    pub results_per_query: Samples,
    pub rebases: u64,
    pub events_applied: u64,
    pub pipeline_durable: u64,
    pub pipeline_fsyncs: u64,
    pub backpressure_waits: u64,
    pub checkpoints: u64,
    pub pool_jobs: u64,
    pub panics_caught: u64,
    pub lint_checks: u64,
    /// Replay totals over traced epochs.
    pub replay: Replay,
    /// Side measurements, one sample per traced epoch.
    pub encode_ns: Samples,
    pub decode_ns: Samples,
    pub frame_bytes: Samples,
    pub entry_delta_bytes: Samples,
    pub checkpoint_ms: Samples,
    pub manifest_bytes: Samples,
    pub read_state_jsonl_ms: Samples,
    pub read_state_binary_ms: Samples,
    pub read_manifest_ms: Samples,
    pub manifest_parse_ms: Samples,
    pub manifest_write_ms: Samples,
    pub index_build_ms: Samples,
    pub wiki_publish_ms: Samples,
}

/// Totals of the layer replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub passes: u64,
    pub events: u64,
    pub catch_up_us: f64,
    pub fold_us: f64,
    pub index_us: f64,
    pub wiki_us: f64,
    pub lint_us: f64,
    pub tokenized: u64,
    pub rendered: u64,
}

/// What a traced epoch keeps for its replay: the merged state before the
/// measured phase, and each busy pass's captured stream.
pub struct EpochTrace {
    snapshot: RepositorySnapshot,
    index: SearchIndex,
    site: WikiSite,
    /// `(op id, captured stream, catch-up duration)` per pass.
    pub passes: Vec<(u64, Vec<Captured>, Duration)>,
}

impl EpochTrace {
    pub fn start(node: &Node) -> EpochTrace {
        let (snapshot, index, site) = node
            .daemon
            .with_federation(|f| (f.snapshot().clone(), f.index().clone(), f.site().clone()));
        EpochTrace {
            snapshot,
            index,
            site,
            passes: Vec::new(),
        }
    }
}

/// Time `f` as a root span `name` of operation `op`, adding to `total`.
fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    op: u64,
    total: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    tracer.record(name, op, start, end);
    *total += (end - start).as_secs_f64() * 1e6;
    out
}

/// The federation's fold of one namespaced event: `Founded` registers the
/// source's curators without renaming the merged node.
fn fold_event(state: &mut RepositorySnapshot, event: &RepoEvent) {
    match event {
        RepoEvent::Founded(founded) => {
            for curator in &founded.curators {
                state.accounts.insert(curator.name.clone(), curator.clone());
            }
        }
        other => apply_event(state, other),
    }
}

/// Ids whose records differ between `from` and `to`.
fn changed_ids(from: &RepositorySnapshot, to: &RepositorySnapshot) -> BTreeSet<EntryId> {
    let mut ids: BTreeSet<EntryId> = to
        .records
        .iter()
        .filter(|(id, record)| from.records.get(*id) != Some(record))
        .map(|(id, _)| id.clone())
        .collect();
    ids.extend(
        from.records
            .keys()
            .filter(|id| !to.records.contains_key(*id))
            .cloned(),
    );
    ids
}

/// Replay every captured pass through fold, index, wiki and lint; returns
/// a description of the first disagreement with the live federation.
fn replay(
    trace: EpochTrace,
    node: &Node,
    catalog: &Arc<CheckCatalog>,
    tracer: &mut Tracer,
    r: &mut Replay,
) -> Option<String> {
    let EpochTrace {
        mut snapshot,
        mut index,
        mut site,
        passes,
    } = trace;
    let mut linter = Linter::new(snapshot.clone(), catalog.clone());
    let bx = WikiBx::new();
    for (op, items, took) in passes {
        if items.is_empty() {
            continue;
        }
        r.passes += 1;
        r.catch_up_us += took.as_secs_f64() * 1e6;
        // Pages sync once per re-base and once per source's run of
        // events, exactly where the federation calls `sync_changed`.
        let mut dirty: BTreeSet<EntryId> = BTreeSet::new();
        let mut source: Option<String> = None;
        let mut sync =
            |dirty: &mut BTreeSet<EntryId>, snapshot: &RepositorySnapshot, tracer: &mut Tracer| {
                if dirty.is_empty() {
                    return;
                }
                let before = entries_rendered();
                timed(tracer, "wiki_bx.sync", op, &mut r.wiki_us, || {
                    bx.sync_changed(snapshot, &mut site, dirty)
                });
                r.rendered += entries_rendered() - before;
                dirty.clear();
            };
        for item in &items {
            match item {
                Captured::Rebased(base) => {
                    sync(&mut dirty, &snapshot, tracer);
                    source = None;
                    let mut changed = timed(tracer, "fold.apply", op, &mut r.fold_us, || {
                        let changed = changed_ids(&snapshot, base);
                        snapshot = base.clone();
                        changed
                    });
                    let before = entries_tokenized();
                    timed(tracer, "index.apply", op, &mut r.index_us, || {
                        for id in &changed {
                            match snapshot.records.get(id) {
                                Some(record) => index.upsert_entry(id, record.latest()),
                                None => index.remove_entry(id),
                            }
                        }
                    });
                    r.tokenized += entries_tokenized() - before;
                    sync(&mut changed, &snapshot, tracer);
                    timed(tracer, "lint.apply", op, &mut r.lint_us, || {
                        linter.rebase(&snapshot)
                    });
                }
                Captured::Event(event) => {
                    if let Some(id) = event.touched() {
                        let prefix = id.as_str().split('/').next().map(str::to_string);
                        if prefix != source {
                            sync(&mut dirty, &snapshot, tracer);
                            source = prefix;
                        }
                    }
                    r.events += 1;
                    timed(tracer, "fold.apply", op, &mut r.fold_us, || {
                        fold_event(&mut snapshot, event)
                    });
                    let before = entries_tokenized();
                    timed(tracer, "index.apply", op, &mut r.index_us, || {
                        index.apply(event)
                    });
                    r.tokenized += entries_tokenized() - before;
                    timed(tracer, "lint.apply", op, &mut r.lint_us, || {
                        linter.apply(event)
                    });
                    if event.changes_rendered_page() {
                        if let Some(id) = event.touched() {
                            dirty.insert(id.clone());
                        }
                    }
                }
            }
        }
        sync(&mut dirty, &snapshot, tracer);
    }
    node.daemon.with_federation(|f| {
        if f.snapshot() != &snapshot {
            Some("replayed fold disagrees with the federation".to_string())
        } else if f.index() != &index {
            Some("replayed index disagrees with the federation".to_string())
        } else if f.site() != &site {
            Some("replayed wiki disagrees with the federation".to_string())
        } else {
            None
        }
    })
}

/// `f`'s result and duration in ms. One run per traced epoch; the
/// report takes the median over epochs.
fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Encode and decode every event the primaries logged this epoch.
fn codec(events: &[RepoEvent], l: &mut LayerSamples) -> Result<(), String> {
    if events.is_empty() {
        return Ok(());
    }
    let reps = (50_000 / events.len()).max(1);
    let mut frame = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        for event in events {
            frame.clear();
            encode_frame(event, &mut frame);
            black_box(&frame);
        }
    }
    let n = (reps * events.len()) as f64;
    l.encode_ns.push(start.elapsed().as_secs_f64() * 1e9 / n);
    let payloads: Vec<Vec<u8>> = events
        .iter()
        .map(|event| {
            let mut payload = Vec::new();
            encode_event(event, &mut payload);
            payload
        })
        .collect();
    let start = Instant::now();
    for _ in 0..reps {
        for payload in &payloads {
            black_box(decode_event(payload)?);
        }
    }
    l.decode_ns.push(start.elapsed().as_secs_f64() * 1e9 / n);
    let mut total = 0usize;
    let mut deltas = Samples::default();
    for event in events {
        frame.clear();
        encode_frame(event, &mut frame);
        total += frame.len();
        if matches!(
            event,
            RepoEvent::Contributed(_) | RepoEvent::Revised(_) | RepoEvent::Approved(_)
        ) {
            deltas.push(frame.len() as f64);
        }
    }
    l.frame_bytes.push(total as f64 / events.len() as f64);
    l.entry_delta_bytes.push(deltas.mean());
    Ok(())
}

/// State reads, checkpoint and manifest codec, index build and wiki
/// publish on the epoch's final state. Returns a mismatch, if any.
fn side(node: &Node, dir: &Path, l: &mut LayerSamples) -> Result<Option<String>, String> {
    let e = |what: &str, err: bx_core::RepoError| format!("{what}: {err}");
    let snapshot = node.primaries[0].repo.snapshot();
    let (json, write_ms) = time_ms(|| persist::to_json(&snapshot));
    let json = json.map_err(|err| e("to_json", err))?;
    let (parsed, parse_ms) = time_ms(|| persist::from_json(&json));
    l.manifest_write_ms.push(write_ms);
    l.manifest_parse_ms.push(parse_ms);
    if parsed.map_err(|err| e("from_json", err))? != snapshot {
        return Ok(Some(
            "manifest codec round trip changed the state".to_string(),
        ));
    }

    let mut backend =
        AutoCompactingBinaryLog::open_with(dir.join("checkpoint"), CompactionPolicy::default())
            .map_err(|err| e("side backend", err))?;
    let (done, checkpoint_ms) = time_ms(|| backend.checkpoint(&snapshot));
    done.map_err(|err| e("side checkpoint", err))?;
    l.checkpoint_ms.push(checkpoint_ms);
    let manifest = std::fs::metadata(dir.join("checkpoint").join("checkpoint.json"))
        .map_err(|err| format!("side manifest: {err}"))?;
    l.manifest_bytes.push(manifest.len() as f64);

    // One state read per format the workload has; a format it lacks reports 0.
    for format in [Format::Binary, Format::Jsonl] {
        let Some(p) = node.primaries.iter().find(|p| p.format == format) else {
            continue;
        };
        let (read, ms) = time_ms(|| EventLogBackend::restore_dir(&p.dir));
        if read.map_err(|err| e("read state", err))? != p.repo.snapshot() {
            return Ok(Some(format!(
                "{} reads back a different state",
                p.dir.display()
            )));
        }
        if format == Format::Binary {
            let (manifest, ms) = time_ms(|| EventLogBackend::read_state_in(&p.dir));
            manifest.map_err(|err| e("read manifest", err))?;
            l.read_manifest_ms.push(ms);
        }
        match format {
            Format::Binary => l.read_state_binary_ms.push(ms),
            Format::Jsonl => l.read_state_jsonl_ms.push(ms),
        }
    }

    let merged = node.daemon.with_federation(|f| f.snapshot().clone());
    let (_, build_ms) = time_ms(|| SearchIndex::build(&merged));
    l.index_build_ms.push(build_ms);
    let (_, publish_ms) = time_ms(|| WikiBx::new().publish(&merged, &WikiSite::new()));
    l.wiki_publish_ms.push(publish_ms);
    Ok(None)
}

/// Finish a traced epoch: replay, codec and side measurements. Returns a
/// description of the first output mismatch found, if any.
pub fn finish(
    trace: EpochTrace,
    node: &Node,
    catalog: &Arc<CheckCatalog>,
    dir: &Path,
    tracer: &mut Tracer,
    l: &mut LayerSamples,
) -> Result<Option<String>, String> {
    if let Some(mismatch) = replay(trace, node, catalog, tracer, &mut l.replay) {
        return Ok(Some(mismatch));
    }
    let logged: Vec<RepoEvent> = node
        .primaries
        .iter()
        .filter_map(|p| p.log.as_ref())
        .flat_map(|log| log.take())
        .filter_map(|captured| match captured {
            Captured::Event(event) => Some(event),
            Captured::Rebased(_) => None,
        })
        .collect();
    codec(&logged, l)?;
    side(node, dir, l)
}
