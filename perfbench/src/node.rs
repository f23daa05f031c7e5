//! The topology under test: P primaries, each a `Repository` whose
//! events a group-commit `BackgroundWriter` ships into an auto-compacting
//! log, tailed by one `Federation` under a `ReplicaDaemon`, with a
//! `LawChecker` on the merged stream. Every tenant runs on the one shared
//! `Runtime` the process creates.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bx_core::replica::{DaemonConfig, Federation, ReplicaDaemon, SourceId};
use bx_core::storage::{
    AutoCompactingEventLog, CompactionPolicy, EventLogBackend, GenerationLog, StorageBackend,
};
use bx_core::{
    BackgroundWriter, BinaryLogBackend, ExampleEntry, HealthReport, PipelineConfig, Principal,
    Repository, Role, Runtime,
};
use bx_lint::{CheckCatalog, LawChecker};

use crate::clock::process_cpu;
use crate::gen::{AUTHOR, CURATOR, MEMBER, REVIEWER};
use crate::stats::Samples;
use crate::trace::Recorder;

/// The merged node's name.
pub const FEDERATION: &str = "perfbench-federation";

/// The one group-commit window every writer uses. A waiting `flush`
/// closes a window early, so in the closed loop the window bounds only
/// how long concurrent producers may share an fsync.
pub const GROUP_COMMIT_WINDOW: Duration = Duration::from_millis(2);

/// Longer than any run: the daemon's timer never fires during a
/// measurement, so visibility is always the client's forced catch-up.
const POLL_INTERVAL: Duration = Duration::from_secs(24 * 3600);

/// On-disk log format of one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Binary,
    Jsonl,
}

/// How the node of one epoch is built.
#[derive(Debug, Clone)]
pub struct Layout {
    pub sources: Vec<Format>,
    pub checkpoint_every: usize,
    /// Cold opens made during setup (the last one is kept).
    pub setup_opens: usize,
}

/// One primary and its durability pipeline.
pub struct Primary {
    pub id: SourceId,
    pub dir: PathBuf,
    pub format: Format,
    pub repo: Repository,
    pub writer: Arc<BackgroundWriter>,
    /// Events committed since founding: the preload's, then the
    /// pipeline's.
    pub preload_events: u64,
    /// Compactions the backend had done when the measured phase began.
    checkpoints_at_start: u64,
    component: String,
    /// Captures every event the primary logs (traced epochs only).
    pub log: Option<Arc<Recorder>>,
}

impl Primary {
    /// Compactions since the measured phase began, from the backend's
    /// `HealthReport::Compaction` on the runtime's channel.
    pub fn checkpoints(&self, runtime: &Runtime) -> u64 {
        match runtime.health().latest(&self.component).map(|h| h.report) {
            Some(HealthReport::Compaction { checkpoints, .. }) => {
                checkpoints.saturating_sub(self.checkpoints_at_start)
            }
            _ => 0,
        }
    }

    /// Record where the measured phase starts.
    pub fn mark_start(&mut self, runtime: &Runtime) {
        self.checkpoints_at_start += self.checkpoints(runtime);
    }
}

/// The node of one epoch.
pub struct Node {
    pub primaries: Vec<Primary>,
    pub daemon: ReplicaDaemon,
    pub lint: Arc<LawChecker>,
    /// Captures what each catch-up pass applies (traced epochs only).
    pub applied: Option<Arc<Recorder>>,
    pub open_ms: Samples,
    pub open_cpu_ms: Samples,
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Found a primary with the benchmark's four accounts and `entries`.
fn preload(name: &str, entries: &[ExampleEntry]) -> Result<Repository, String> {
    let repo = Repository::found(name, vec![Principal::curator(CURATOR)]);
    for account in [AUTHOR, MEMBER, REVIEWER] {
        repo.register(Principal::member(account))
            .map_err(|e| err("register", e))?;
    }
    repo.grant_role(CURATOR, REVIEWER, Role::Reviewer)
        .map_err(|e| err("grant", e))?;
    for entry in entries {
        repo.contribute(AUTHOR, entry.clone())
            .map_err(|e| err("preload", e))?;
    }
    Ok(repo)
}

/// Open the compacting log, checkpoint the preloaded state into it and
/// start its writer on the shared runtime.
fn start_writer<B: GenerationLog + Send + 'static>(
    dir: &Path,
    repo: &Repository,
    layout: &Layout,
    runtime: &Arc<Runtime>,
    component: &str,
) -> Result<(BackgroundWriter, u64), String> {
    let policy = CompactionPolicy {
        checkpoint_every: layout.checkpoint_every,
    };
    let mut backend =
        AutoCompactingEventLog::<B>::open_with(dir, policy).map_err(|e| err("open log", e))?;
    backend.set_observer(runtime.health(), component);
    backend
        .checkpoint(&repo.snapshot())
        .map_err(|e| err("preload checkpoint", e))?;
    let checkpoints = backend.compactions();
    let config = PipelineConfig::group_commit(GROUP_COMMIT_WINDOW);
    let writer =
        BackgroundWriter::on_runtime(backend, config, runtime, &format!("writer:{component}"));
    Ok((writer, checkpoints))
}

impl Node {
    /// Build every primary of `layout` under `dir` from `preloads` (one
    /// entry list per source), then hand each a writer.
    pub fn primaries(
        runtime: &Arc<Runtime>,
        dir: &Path,
        layout: &Layout,
        preloads: &[Vec<ExampleEntry>],
        traced: bool,
    ) -> Result<Vec<Primary>, String> {
        let mut primaries = Vec::new();
        for (s, (format, entries)) in layout.sources.iter().zip(preloads).enumerate() {
            let id = SourceId::new(&format!("s{s}"));
            let source_dir = dir.join(id.as_str());
            let repo = preload(&format!("primary-{s}"), entries)?;
            let preload_events = repo.drain_events().len() as u64;
            repo.set_journal_capacity(0);
            let component = format!("storage:{id}");
            let (writer, checkpoints_at_start) = match format {
                Format::Binary => start_writer::<BinaryLogBackend>(
                    &source_dir,
                    &repo,
                    layout,
                    runtime,
                    &component,
                )?,
                Format::Jsonl => start_writer::<EventLogBackend>(
                    &source_dir,
                    &repo,
                    layout,
                    runtime,
                    &component,
                )?,
            };
            let writer = Arc::new(writer);
            repo.subscribe(writer.clone());
            let log = traced.then(|| {
                let log = Arc::new(Recorder::default());
                repo.subscribe(log.clone());
                log
            });
            primaries.push(Primary {
                id,
                dir: source_dir,
                format: *format,
                repo,
                writer,
                preload_events,
                checkpoints_at_start,
                component,
                log,
            });
        }
        Ok(primaries)
    }

    /// Cold-open the federation over `primaries` (`layout.setup_opens`
    /// times), attach the lint checker and start the daemon.
    pub fn serve(
        runtime: &Arc<Runtime>,
        catalog: &Arc<CheckCatalog>,
        layout: &Layout,
        primaries: Vec<Primary>,
        traced: bool,
    ) -> Result<Node, String> {
        let sources = sources_of(&primaries);
        let mut open_ms = Samples::default();
        let mut open_cpu_ms = Samples::default();
        let mut federation = None;
        for _ in 0..layout.setup_opens.max(1) {
            drop(federation.take());
            let cpu = process_cpu();
            let start = Instant::now();
            let opened = Federation::open_on(FEDERATION, sources.clone(), runtime)
                .map_err(|e| err("cold open", e))?;
            open_ms.push(start.elapsed().as_secs_f64() * 1e3);
            open_cpu_ms.push((process_cpu() - cpu).as_secs_f64() * 1e3);
            federation = Some(opened);
        }
        let mut federation = federation.expect("at least one open ran");
        let lint = Arc::new(LawChecker::on_runtime(catalog.clone(), runtime, "lint"));
        federation.subscribe(lint.clone());
        let applied = traced.then(|| {
            let applied = Arc::new(Recorder::default());
            federation.subscribe(applied.clone());
            applied.take();
            applied
        });
        let config = DaemonConfig {
            poll_interval: POLL_INTERVAL,
        };
        let daemon = ReplicaDaemon::spawn_on(federation, config, runtime, "daemon");
        // The daemon runs one pass as it starts; let it finish so it
        // cannot land inside the measured phase.
        let deadline = Instant::now() + Duration::from_secs(30);
        while daemon.stats().polls == 0 {
            if Instant::now() > deadline {
                return Err("the daemon's first pass never ran".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        lint.wait_idle();
        Ok(Node {
            primaries,
            daemon,
            lint,
            applied,
            open_ms,
            open_cpu_ms,
        })
    }

    /// `(source, directory)` pairs for `Federation::open_on`.
    pub fn sources(&self) -> Vec<(SourceId, PathBuf)> {
        sources_of(&self.primaries)
    }

    /// Stop the daemon and drain every writer.
    pub fn teardown(mut self) -> Result<(), String> {
        self.daemon.stop();
        drop(self.daemon);
        self.lint.wait_idle();
        for primary in &self.primaries {
            primary
                .writer
                .shutdown()
                .map_err(|e| err("writer shutdown", e))?;
        }
        Ok(())
    }
}

fn sources_of(primaries: &[Primary]) -> Vec<(SourceId, PathBuf)> {
    primaries
        .iter()
        .map(|p| (p.id.clone(), p.dir.clone()))
        .collect()
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
