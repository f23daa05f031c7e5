//! The three workloads and the closed-loop client that runs them.
//!
//! A run is a sequence of *epochs*. Each epoch builds a fresh topology
//! (preload, checkpoint, cold open), runs a fixed number of
//! operations from the seeded stream in a closed loop, checks the
//! outputs, and tears down. Fixed-size epochs keep the state from
//! drifting with run length — every epoch starts from a preload of the
//! same size — and make per-epoch counts such as bytes per event exact.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bx_core::index::SearchIndex;
use bx_core::replica::{federate_snapshots, Federation, FederationCatchUp};
use bx_core::repo::RepositorySnapshot;
use bx_core::{EntryId, ExampleEntry, RepoError, Runtime};
use bx_examples::benchmark::Lcg;
use bx_lint::CheckCatalog;

use crate::clock::process_cpu;
use crate::gen::{Mix, Op, OpStream, AUTHOR, MEMBER, REVIEWER};
use crate::layers::{self, EpochTrace, LayerSamples};
use crate::node::{dir_bytes, Format, Layout, Node, Primary, FEDERATION};
use crate::stats::Samples;
use crate::trace::Tracer;

/// One workload: the topology each epoch builds and the operation mix it
/// runs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub layout: Layout,
    /// Entries preloaded into every source.
    pub preload: usize,
    /// Writes per source made during setup, after the preload checkpoint
    /// (the log tail a cold open must decode).
    pub tail: usize,
    /// Operations per epoch.
    pub epoch_ops: usize,
    pub mix: Mix,
}

/// The workloads, by name.
pub fn spec(name: &str) -> Option<Spec> {
    let binary = |n: usize| vec![Format::Binary; n];
    match name {
        // Write-heavy: two primaries; every source crosses its checkpoint
        // threshold several times per epoch, so binlog appends,
        // compaction and federation rebases do most of the work.
        "ingest" => Some(Spec {
            layout: Layout {
                sources: binary(2),
                checkpoint_every: 40,
                setup_opens: 3,
            },
            preload: 60,
            tail: 0,
            epoch_ops: 240,
            mix: Mix {
                comment: 55,
                revise: 10,
                contribute: 5,
                review: 10,
                query: 20,
                ..Mix::default()
            },
        }),
        // Read-heavy: eight checkpointed sources, zipfian queries, near-idle
        // polls, and about one write in fifty that never reaches a
        // checkpoint.
        "serve" => Some(Spec {
            layout: Layout {
                sources: binary(8),
                checkpoint_every: 1 << 30,
                setup_opens: 1,
            },
            preload: 80,
            tail: 0,
            epoch_ops: 6000,
            mix: Mix {
                comment: 1,
                revise: 1,
                query: 88,
                poll: 10,
                ..Mix::default()
            },
        }),
        // Cold open: four sources (two JSONL, two binary), each a
        // checkpoint manifest plus a long tail written after it.
        "restore" => Some(Spec {
            layout: Layout {
                sources: vec![Format::Jsonl, Format::Jsonl, Format::Binary, Format::Binary],
                checkpoint_every: 1 << 30,
                setup_opens: 1,
            },
            preload: 100,
            tail: 1500,
            epoch_ops: 243,
            mix: Mix {
                comment: 40,
                query: 200,
                open: 3,
                ..Mix::default()
            },
        }),
        _ => None,
    }
}

pub const WORKLOADS: [&str; 3] = ["ingest", "serve", "restore"];

/// Everything a run measures, summed over its epochs.
#[derive(Debug, Default)]
pub struct Acc {
    pub attempted: u64,
    pub failed: u64,
    pub epochs: u64,
    pub ops: u64,
    /// Closed-loop throughput split by whether the epoch was traced.
    pub traced_ops: u64,
    pub traced_seconds: f64,
    pub untraced_ops: u64,
    pub untraced_seconds: f64,
    /// The current epoch's latencies on the process CPU clock (see
    /// `clock`), and its cold opens' wall time.
    pub durable_cpu_us: Samples,
    pub visible_cpu_us: Samples,
    pub query_cpu_us: Samples,
    pub open_cpu_ms: Samples,
    pub open_ms: Samples,
    /// Process CPU seconds of the closed loops.
    pub cpu_seconds: f64,
    /// One value per epoch for each end-to-end metric; the run report
    /// summarises each over its epochs.
    pub per_epoch: BTreeMap<&'static str, Samples>,
    /// Wall-clock latencies of untraced epochs only, for the traced
    /// run's report.
    pub untraced_durable_us: Samples,
    pub untraced_visible_us: Samples,
    pub untraced_query_us: Samples,
    pub layers: LayerSamples,
}

impl Acc {
    fn epoch_value(&mut self, metric: &'static str, value: f64) {
        self.per_epoch.entry(metric).or_default().push(value);
    }

    /// Fold the epoch's latencies into per-epoch statistics.
    fn close_epoch(&mut self) {
        for (metric, samples) in [
            ("open_p50_ms", &self.open_ms),
            ("durable_cpu_p50_us", &self.durable_cpu_us),
            ("visible_cpu_p50_us", &self.visible_cpu_us),
            ("query_cpu_p50_us", &self.query_cpu_us),
            ("open_cpu_p50_ms", &self.open_cpu_ms),
        ] {
            let value = samples.median();
            self.per_epoch.entry(metric).or_default().push(value);
        }
        self.open_ms = Samples::default();
        self.durable_cpu_us = Samples::default();
        self.visible_cpu_us = Samples::default();
        self.query_cpu_us = Samples::default();
        self.open_cpu_ms = Samples::default();
    }
}

/// Reference answers: per source, `SearchIndex::build` over that
/// source's namespaced snapshot, rebuilt after each write to it.
struct References {
    indexes: Vec<Option<SearchIndex>>,
}

impl References {
    fn new(sources: usize) -> References {
        References {
            indexes: vec![None; sources],
        }
    }

    fn invalidate(&mut self, source: usize) {
        self.indexes[source] = None;
    }

    fn index(&mut self, primaries: &[Primary], source: usize) -> &SearchIndex {
        self.indexes[source].get_or_insert_with(|| {
            let p = &primaries[source];
            SearchIndex::build(&federate_snapshots(
                FEDERATION,
                &[(p.id.clone(), p.repo.snapshot())],
            ))
        })
    }

    fn answer(
        &mut self,
        primaries: &[Primary],
        source: Option<usize>,
        terms: &[&str],
    ) -> Vec<(EntryId, u32)> {
        match source {
            Some(s) => self.index(primaries, s).query(terms),
            None => {
                let mut all: Vec<(EntryId, u32)> = (0..primaries.len())
                    .flat_map(|s| self.index(primaries, s).query(terms))
                    .collect();
                all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                all
            }
        }
    }
}

/// What federating the primaries' current states must give.
pub fn expected_federation(primaries: &[Primary]) -> RepositorySnapshot {
    let parts: Vec<_> = primaries
        .iter()
        .map(|p| (p.id.clone(), p.repo.snapshot()))
        .collect();
    federate_snapshots(FEDERATION, &parts)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Apply one write's mutation(s) to its primary.
fn mutate(p: &Primary, op: &Op) -> Result<EntryId, RepoError> {
    match op {
        Op::Comment { id, text, .. } => p
            .repo
            .comment(MEMBER, id, "2014-03-28", text)
            .map(|()| id.clone()),
        Op::Revise { id, entry, .. } => {
            p.repo.revise(AUTHOR, id, entry.clone()).map(|_| id.clone())
        }
        Op::Contribute { entry, .. } => p.repo.contribute(AUTHOR, entry.clone()),
        Op::Review { id, .. } => {
            p.repo.request_review(AUTHOR, id)?;
            p.repo.approve(REVIEWER, id).map(|_| id.clone())
        }
        _ => unreachable!("only writes mutate"),
    }
}

fn write_source(op: &Op) -> usize {
    match op {
        Op::Comment { source, .. }
        | Op::Revise { source, .. }
        | Op::Contribute { source, .. }
        | Op::Review { source, .. } => *source,
        _ => unreachable!("only writes have a source"),
    }
}

/// Does the federation serve the primary's current record of `id`?
fn visible_in(federation: &Federation, p: &Primary, id: &EntryId) -> bool {
    let Some(record) = federation.snapshot().records.get(&p.id.entry_id(id)) else {
        return false;
    };
    p.repo.latest(id).ok().as_ref() == Some(record.latest())
        && p.repo.status(id).ok() == Some(record.status)
        && p.repo.versions(id).map(|v| v.len()).ok() == Some(record.history.len())
}

fn pass_ok(pass: &FederationCatchUp) -> bool {
    pass.errors.is_empty() && pass.skipped == 0
}

/// The per-epoch context the operation loop works in.
struct Epoch<'a> {
    runtime: &'a Arc<Runtime>,
    node: &'a Node,
    refs: References,
    trace: Option<EpochTrace>,
    failed: u64,
}

impl Epoch<'_> {
    fn fail(&mut self, what: String) {
        if self.failed < 8 {
            eprintln!("perfbench: {what}");
        }
        self.failed += 1;
    }

    /// One closed-loop operation, returning its wall and process CPU
    /// time. Only the calls into the system are inside the timed `op`
    /// span; output checks run after it. Failures are counted, not
    /// returned, so the loop keeps its pace.
    fn run(&mut self, op: &Op, tracer: &mut Tracer, acc: &mut Acc) -> (Duration, Duration) {
        let op_id = tracer.next_op();
        match op {
            Op::Query { source, terms } => self.query(*source, terms, tracer, acc),
            Op::Poll => self.poll(op_id, tracer, acc),
            Op::Open => self.open(tracer, acc),
            _ => self.write(op, op_id, tracer, acc),
        }
    }

    fn write(
        &mut self,
        op: &Op,
        op_id: u64,
        tracer: &mut Tracer,
        acc: &mut Acc,
    ) -> (Duration, Duration) {
        let node = self.node;
        let source = write_source(op);
        let p = &node.primaries[source];
        let cpu = process_cpu();
        let (timed, took) = tracer.span("op", |tracer| {
            let start = Instant::now();
            let (mutated, write) = tracer.span("repo.write", |_| mutate(p, op));
            let (flushed, flush) = tracer.span("pipeline.flush", |_| p.writer.flush());
            let durable = start.elapsed();
            let durable_cpu = process_cpu() - cpu;
            let (pass, catch_up) =
                tracer.span("replica.catch_up", |_| node.daemon.force_catch_up());
            let visible = start.elapsed();
            let visible_cpu = process_cpu() - cpu;
            let ((), lint_wait) = tracer.span("lint.wait", |_| node.lint.wait_idle());
            (
                mutated,
                flushed,
                pass,
                [write, flush, durable, catch_up, visible, lint_wait],
                [durable_cpu, visible_cpu],
            )
        });
        let took_cpu = process_cpu() - cpu;
        let (
            mutated,
            flushed,
            pass,
            [write, flush, durable, catch_up, visible, lint_wait],
            [durable_cpu, visible_cpu],
        ) = timed;
        acc.durable_cpu_us.push(us(durable_cpu));
        acc.visible_cpu_us.push(us(visible_cpu));
        self.refs.invalidate(source);
        let l = &mut acc.layers;
        l.repo_write_us.push(us(write));
        l.flush_us.push(us(flush));
        l.lint_wait_us.push(us(lint_wait));
        if !tracer.enabled() {
            acc.untraced_durable_us.push(us(durable));
            acc.untraced_visible_us.push(us(visible));
        }
        let id = match (mutated, flushed, &pass) {
            (Ok(id), Ok(()), Ok(pass)) if pass_ok(pass) => id,
            (mutated, flushed, pass) => {
                self.fail(format!("write {op:?}: {mutated:?} {flushed:?} {pass:?}"));
                return (took, took_cpu);
            }
        };
        let pass = pass.expect("checked above");
        self.note_pass(&pass, catch_up, op_id, acc);
        if !node.daemon.with_federation(|f| visible_in(f, p, &id)) {
            self.fail(format!("write to {id} not visible after its catch-up pass"));
        }
        (took, took_cpu)
    }

    fn note_pass(&mut self, pass: &FederationCatchUp, took: Duration, op_id: u64, acc: &mut Acc) {
        let l = &mut acc.layers;
        if pass.events_applied == 0 && pass.rebases == 0 {
            l.poll_idle_us.push(us(took));
        } else {
            l.poll_busy_us.push(us(took));
            l.events_per_poll.push(pass.events_applied as f64);
        }
        if pass.rebases > 0 {
            l.rebase_ms.push(took.as_secs_f64() * 1e3);
        }
        l.rebases += pass.rebases as u64;
        l.events_applied += pass.events_applied as u64;
        if let (Some(trace), Some(applied)) = (self.trace.as_mut(), self.node.applied.as_ref()) {
            trace.passes.push((op_id, applied.take(), took));
        }
    }

    fn query(
        &mut self,
        source: Option<usize>,
        terms: &[String],
        tracer: &mut Tracer,
        acc: &mut Acc,
    ) -> (Duration, Duration) {
        let node = self.node;
        let terms: Vec<&str> = terms.iter().map(String::as_str).collect();
        let name = if source.is_some() {
            "index.query.source"
        } else {
            "index.query.federated"
        };
        let cpu = process_cpu();
        let (hits, took) = tracer.span("op", |tracer| {
            tracer
                .span(name, |_| match source {
                    None => node.daemon.query(&terms),
                    Some(s) => {
                        let id = &node.primaries[s].id;
                        node.daemon.with_federation(|f| f.query_source(id, &terms))
                    }
                })
                .0
        });
        let took_cpu = process_cpu() - cpu;
        acc.query_cpu_us.push(us(took_cpu));
        if !tracer.enabled() {
            acc.untraced_query_us.push(us(took));
        }
        let l = &mut acc.layers;
        match source {
            None => l.query_federated_us.push(us(took)),
            Some(_) => l.query_source_us.push(us(took)),
        }
        l.results_per_query.push(hits.len() as f64);
        if hits != self.refs.answer(&node.primaries, source, &terms) {
            self.fail(format!(
                "query {terms:?} on {source:?} disagrees with the reference"
            ));
        }
        (took, took_cpu)
    }

    fn poll(&mut self, op_id: u64, tracer: &mut Tracer, acc: &mut Acc) -> (Duration, Duration) {
        let node = self.node;
        let cpu = process_cpu();
        let (pass, took) = tracer.span("op", |tracer| {
            tracer
                .span("replica.catch_up", |_| node.daemon.force_catch_up())
                .0
        });
        let took_cpu = process_cpu() - cpu;
        match pass {
            Ok(pass) if pass_ok(&pass) && pass.events_applied == 0 && pass.rebases == 0 => {
                self.note_pass(&pass, took, op_id, acc)
            }
            other => self.fail(format!("idle poll applied work or failed: {other:?}")),
        }
        (took, took_cpu)
    }

    fn open(&mut self, tracer: &mut Tracer, acc: &mut Acc) -> (Duration, Duration) {
        let sources = self.node.sources();
        let runtime = self.runtime;
        let cpu = process_cpu();
        let (opened, took) = tracer.span("op", |tracer| {
            tracer
                .span("federation.open", |_| {
                    Federation::open_on(FEDERATION, sources, runtime)
                })
                .0
        });
        let took_cpu = process_cpu() - cpu;
        acc.open_ms.push(took.as_secs_f64() * 1e3);
        acc.open_cpu_ms.push(took_cpu.as_secs_f64() * 1e3);
        match opened {
            Ok(federation) => {
                if federation.snapshot() != &expected_federation(&self.node.primaries) {
                    self.fail("a cold open disagrees with the primaries' state".to_string());
                }
            }
            Err(e) => self.fail(format!("cold open failed: {e}")),
        }
        (took, took_cpu)
    }

    /// End-of-epoch check: one more catch-up finds nothing to apply, the
    /// merged snapshot is the federation of the primaries' snapshots, and
    /// its index answers the fixed query sample as a freshly built index
    /// does.
    fn verify(&mut self, tracer: &mut Tracer, acc: &mut Acc) {
        let op_id = tracer.next_op();
        self.poll(op_id, tracer, acc);
        let expected = expected_federation(&self.node.primaries);
        let reference = SearchIndex::build(&expected);
        let ok = self.node.daemon.with_federation(|f| {
            f.snapshot() == &expected
                && OpStream::query_sample().iter().all(|terms| {
                    let terms: Vec<&str> = terms.iter().map(String::as_str).collect();
                    f.query(&terms) == reference.query(&terms)
                })
        });
        if !ok {
            self.fail("end-of-epoch state disagrees with the primaries".to_string());
        }
    }
}

/// The preload entries of one epoch, one list per source. Every epoch
/// preloads the same number of entries of the same sizes, so the state
/// does not drift with run length; their words differ from epoch to
/// epoch, so a run's figures are not tied to one draw of the index.
fn preloads(spec: &Spec, seed: u64, epoch: u64) -> Vec<Vec<ExampleEntry>> {
    let mut stream = OpStream::new(
        seed ^ 0x005E_ED0F_F00D ^ epoch.wrapping_mul(0xD1B5_4A32_D192_ED03),
        spec.mix,
        spec.layout.sources.len(),
        0,
    );
    (0..spec.layout.sources.len())
        .map(|s| {
            (0..spec.preload)
                .map(|i| stream.preload_entry(s, i))
                .collect()
        })
        .collect()
}

/// Run one epoch under `dir`, folding its measurements into `acc`.
#[allow(clippy::too_many_arguments)]
pub fn run_epoch(
    runtime: &Arc<Runtime>,
    catalog: &Arc<CheckCatalog>,
    spec: &Spec,
    seed: u64,
    epoch: u64,
    dir: &Path,
    tracer: &mut Tracer,
    acc: &mut Acc,
) -> Result<(), String> {
    let traced = tracer.enabled();
    let mut stream = OpStream::new(
        Lcg::new(seed).next_u64() ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        spec.mix,
        spec.layout.sources.len(),
        spec.preload,
    );
    let preload = preloads(spec, seed, epoch);
    std::fs::remove_dir_all(dir).ok();
    let setup = Instant::now();
    let setup_cpu = process_cpu();
    let primaries = Node::primaries(runtime, dir, &spec.layout, &preload, traced)?;
    for _ in 0..spec.tail * primaries.len() {
        let op = stream.next_write();
        mutate(&primaries[write_source(&op)], &op).map_err(|e| format!("tail write: {e}"))?;
    }
    for p in &primaries {
        p.writer.flush().map_err(|e| format!("tail flush: {e}"))?;
    }
    let mut node = Node::serve(runtime, catalog, &spec.layout, primaries, traced)?;
    acc.epoch_value("setup_wall_s", setup.elapsed().as_secs_f64());
    acc.epoch_value("setup_s", (process_cpu() - setup_cpu).as_secs_f64());
    acc.open_ms.extend(&node.open_ms);
    acc.open_cpu_ms.extend(&node.open_cpu_ms);
    for p in &mut node.primaries {
        p.mark_start(runtime);
    }
    let pipeline_start: Vec<_> = node.primaries.iter().map(|p| p.writer.stats()).collect();
    let pool_start = runtime.pool_stats();
    let checks_start = node.lint.checks_run();
    let trace = traced.then(|| EpochTrace::start(&node));
    let mut epoch_ctx = Epoch {
        runtime,
        node: &node,
        refs: References::new(node.primaries.len()),
        trace,
        failed: 0,
    };
    let mut op_time = Duration::ZERO;
    let mut op_cpu = Duration::ZERO;
    for op in stream.epoch(spec.epoch_ops) {
        let (wall, cpu) = epoch_ctx.run(&op, tracer, acc);
        op_time += wall;
        op_cpu += cpu;
    }
    epoch_ctx.verify(tracer, acc);
    let trace = epoch_ctx.trace.take();
    let failed = epoch_ctx.failed;
    drop(epoch_ctx);

    let ops = spec.epoch_ops as u64;
    acc.epochs += 1;
    acc.ops += ops;
    acc.cpu_seconds += op_cpu.as_secs_f64();
    if traced {
        acc.traced_ops += ops;
        acc.traced_seconds += op_time.as_secs_f64();
    } else {
        acc.untraced_ops += ops;
        acc.untraced_seconds += op_time.as_secs_f64();
    }
    acc.attempted += ops + 1;
    acc.failed += failed;

    // Per-epoch counters, read after the loop and before teardown.
    let l = &mut acc.layers;
    for (p, start) in node.primaries.iter().zip(&pipeline_start) {
        let now = p.writer.stats();
        l.pipeline_durable += now.durable - start.durable;
        l.pipeline_fsyncs += now.fsyncs - start.fsyncs;
        l.backpressure_waits += now.backpressure_waits - start.backpressure_waits;
        l.checkpoints += p.checkpoints(runtime);
    }
    let pool = runtime.pool_stats();
    l.pool_jobs += pool.jobs_run - pool_start.jobs_run;
    l.panics_caught += pool.panics_caught - pool_start.panics_caught;
    l.lint_checks += node.lint.checks_run() - checks_start;
    let bytes: u64 = node.primaries.iter().map(|p| dir_bytes(&p.dir)).sum();
    let events: u64 = node
        .primaries
        .iter()
        .map(|p| p.preload_events + p.writer.stats().durable)
        .sum();
    acc.epoch_value("disk_bytes_per_event", bytes as f64 / events as f64);
    acc.close_epoch();

    if let Some(trace) = trace {
        let report = layers::finish(
            trace,
            &node,
            catalog,
            &dir.join("side"),
            tracer,
            &mut acc.layers,
        )?;
        if let Some(mismatch) = report {
            acc.failed += 1;
            eprintln!("perfbench: epoch {epoch}: {mismatch}");
        }
        acc.attempted += 1;
    }
    node.teardown()?;
    std::fs::remove_dir_all(dir).ok();
    Ok(())
}
