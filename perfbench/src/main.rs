//! `perfbench`: the closed-loop end-to-end benchmark of the bx workspace.
//!
//! ```text
//! perfbench --workload <ingest|serve|restore> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the real topology (primaries → group-commit writers → logs →
//! federation under a daemon → lint) from one client thread, checks every
//! output, and prints one JSON line as the last line of standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits non-zero when any operation failed or any output
//! check disagreed. See `README.md` next to this package.

mod clock;
mod gen;
mod layers;
mod node;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bx_core::Runtime;

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workload::{Acc, Spec};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.trim_start_matches("--").to_string(), value);
    }
    let take = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        take(name)?.parse().map_err(|e| format!("--{name}: {e}"))
    };
    Ok(Args {
        workload: take("workload")?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Epochs every run makes at least: a traced run alternates traced and
/// untraced epochs, and needs both.
const MIN_EPOCHS: u64 = 4;

/// Workers of the one shared runtime every tenant runs on.
const WORKERS: usize = 1;

/// One JSON metric list, in print order.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(acc: &Acc) -> Metrics {
    let mut m = Metrics(Vec::new());
    // Every gated time is read from the process CPU clock (see `clock`):
    // on a shared host, wall time measures how long the process waited
    // for a CPU as much as the program. Each latency is a p50 per epoch,
    // and the run reports the median over its epochs; throughput is
    // pooled over the run, so checkpoint and rebase stalls count in
    // proportion however they fall across epochs. The wall-clock
    // counterparts are in the traced run's output.
    let median = |name: &str| acc.per_epoch.get(name).map_or(0.0, Samples::median);
    m.put("setup_s", median("setup_s"), "s");
    m.put("ops_per_cpu_s", acc.ops as f64 / acc.cpu_seconds, "1/s");
    m.put("durable_cpu_p50_us", median("durable_cpu_p50_us"), "us");
    m.put("visible_cpu_p50_us", median("visible_cpu_p50_us"), "us");
    m.put("query_cpu_p50_us", median("query_cpu_p50_us"), "us");
    m.put("open_cpu_p50_ms", median("open_cpu_p50_ms"), "ms");
    m.put("disk_bytes_per_event", median("disk_bytes_per_event"), "B");
    m.put("rss_peak_mb", rss_peak_mb(), "MiB");
    m
}

fn per_layer(acc: &Acc, tracer: &Tracer) -> Metrics {
    let l = &acc.layers;
    let r = &l.replay;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let epochs = acc.epochs as f64;
    let mut m = Metrics(Vec::new());
    let pct = |m: &mut Metrics, name: &str, s: &Samples, unit: &'static str| {
        m.put(&format!("{name}.p50"), s.quantile(0.5), unit);
        m.put(&format!("{name}.p90"), s.quantile(0.9), unit);
    };
    pct(&mut m, "repo.write_us", &l.repo_write_us, "us");
    pct(&mut m, "pipeline.flush_us", &l.flush_us, "us");
    m.put(
        "pipeline.events_per_fsync",
        per(l.pipeline_durable as f64, l.pipeline_fsyncs as f64),
        "count",
    );
    m.put(
        "pipeline.backpressure_waits",
        per(l.backpressure_waits as f64, epochs),
        "count",
    );
    m.put("binlog.encode_ns_per_event", l.encode_ns.median(), "ns");
    m.put("binlog.decode_ns_per_event", l.decode_ns.median(), "ns");
    m.put(
        "storage.checkpoints",
        per(l.checkpoints as f64, epochs),
        "count",
    );
    m.put("storage.checkpoint_ms", l.checkpoint_ms.median(), "ms");
    m.put("storage.bytes_per_event", l.frame_bytes.median(), "B");
    m.put(
        "storage.bytes_per_entry_event",
        l.entry_delta_bytes.median(),
        "B",
    );
    m.put("storage.manifest_bytes", l.manifest_bytes.median(), "B");
    m.put(
        "storage.read_state_ms.jsonl",
        l.read_state_jsonl_ms.median(),
        "ms",
    );
    m.put(
        "storage.read_state_ms.binary",
        l.read_state_binary_ms.median(),
        "ms",
    );
    m.put(
        "storage.read_manifest_ms",
        l.read_manifest_ms.median(),
        "ms",
    );
    m.put(
        "persist.manifest_parse_ms",
        l.manifest_parse_ms.median(),
        "ms",
    );
    m.put(
        "persist.manifest_write_ms",
        l.manifest_write_ms.median(),
        "ms",
    );
    pct(&mut m, "replica.poll_busy_us", &l.poll_busy_us, "us");
    pct(&mut m, "replica.poll_idle_us", &l.poll_idle_us, "us");
    m.put("replica.rebase_ms", l.rebase_ms.median(), "ms");
    m.put("replica.rebases", per(l.rebases as f64, epochs), "count");
    m.put("replica.events_per_poll", l.events_per_poll.mean(), "count");
    m.put(
        "replica.poll_decode_us_per_pass",
        per(
            r.catch_up_us - r.fold_us - r.index_us - r.wiki_us,
            r.passes as f64,
        ),
        "us",
    );
    m.put("fold.apply_us", per(r.fold_us, r.events as f64), "us");
    pct(
        &mut m,
        "index.query_us.federated",
        &l.query_federated_us,
        "us",
    );
    pct(&mut m, "index.query_us.source", &l.query_source_us, "us");
    m.put(
        "index.results_per_query",
        l.results_per_query.mean(),
        "count",
    );
    m.put("index.apply_us", per(r.index_us, r.events as f64), "us");
    m.put(
        "index.entries_tokenized",
        per(r.tokenized as f64, r.events as f64),
        "count",
    );
    m.put("index.build_ms", l.index_build_ms.median(), "ms");
    m.put("wiki_bx.sync_us", per(r.wiki_us, r.passes as f64), "us");
    m.put(
        "wiki_bx.pages_rendered",
        per(r.rendered as f64, r.events as f64),
        "count",
    );
    m.put("wiki_bx.publish_ms", l.wiki_publish_ms.median(), "ms");
    m.put("lint.idle_wait_us", l.lint_wait_us.median(), "us");
    m.put(
        "lint.checks_per_event",
        per(l.lint_checks as f64, l.events_applied as f64),
        "count",
    );
    m.put("lint.apply_us", per(r.lint_us, r.events as f64), "us");
    m.put(
        "runtime.jobs_per_op",
        per(l.pool_jobs as f64, acc.ops as f64),
        "count",
    );
    m.put("runtime.panics_caught", l.panics_caught as f64, "count");
    // Wall-clock figures: what a client waits, host interference
    // included. Latencies and throughput from the untraced epochs.
    let median = |name: &str| acc.per_epoch.get(name).map_or(0.0, Samples::median);
    m.put(
        "ops_per_s",
        per(acc.untraced_ops as f64, acc.untraced_seconds),
        "1/s",
    );
    m.put("setup_wall_s", median("setup_wall_s"), "s");
    m.put("open_p50_ms", median("open_p50_ms"), "ms");
    for (name, samples) in [
        ("durable", &acc.untraced_durable_us),
        ("visible", &acc.untraced_visible_us),
        ("query", &acc.untraced_query_us),
    ] {
        m.put(&format!("{name}_p50_us"), samples.median(), "us");
        m.put(&format!("{name}_p90_us"), samples.quantile(0.9), "us");
        m.put(&format!("{name}_p99_us"), samples.quantile(0.99), "us");
    }
    let self_us = tracer.self_times_us();
    let traced_ops = acc.traced_ops as f64;
    for (layer, span) in [
        ("client", "op"),
        ("repo", "repo.write"),
        ("pipeline", "pipeline.flush"),
        ("replica", "replica.catch_up"),
        ("lint", "lint.wait"),
        ("index", "index.query.federated"),
        ("index_source", "index.query.source"),
        ("open", "federation.open"),
    ] {
        let total = self_us.get(span).copied().unwrap_or(0.0);
        m.put(
            &format!("self_us_per_op.{layer}"),
            per(total, traced_ops),
            "us",
        );
    }
    let traced = per(acc.traced_ops as f64, acc.traced_seconds);
    let untraced = per(acc.untraced_ops as f64, acc.untraced_seconds);
    m.put(
        "trace.overhead_pct",
        per(untraced - traced, traced) * 100.0,
        "%",
    );
    m.put("trace.spans", tracer.span_count() as f64, "count");
    m.put(
        "failed_frac",
        per(acc.failed as f64, acc.attempted as f64),
        "frac",
    );
    m
}

fn run(args: &Args, spec: &Spec, work: &Path) -> Result<(Acc, Tracer), String> {
    // One worker. On a shared host the parallelism a process really gets
    // swings between one and all of its CPUs from second to second, so
    // anything the pool runs in parallel (cold opens above all) would
    // measure that swing; with one worker the pool runs its jobs one at a
    // time and the figures depend on single-core speed.
    let runtime = Runtime::new(WORKERS);
    let catalog = Arc::new(bx_lint::standard_catalog());
    let mut tracer = Tracer::new();
    let mut acc = Acc::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut epoch = 0u64;
    while epoch < MIN_EPOCHS || start.elapsed() < budget {
        tracer.set_enabled(args.trace && epoch.is_multiple_of(2));
        workload::run_epoch(
            &runtime,
            &catalog,
            spec,
            args.seed,
            epoch,
            &work.join(format!("epoch-{epoch}")),
            &mut tracer,
            &mut acc,
        )?;
        epoch += 1;
    }
    // The shared runtime is deliberately never dropped: the process exits
    // with it alive, so pool shutdown cannot hold up a finished run.
    std::mem::forget(runtime);
    Ok((acc, tracer))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <ingest|serve|restore> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (one of {:?})",
            args.workload,
            workload::WORKLOADS
        );
        std::process::exit(2);
    };
    // All files live inside the working directory (the checkout).
    let work: PathBuf = std::env::current_dir()
        .expect("the working directory is readable")
        .join(".perfbench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    let outcome = run(&args, &spec, &work);
    std::fs::remove_dir_all(&work).ok();
    if let Some(parent) = work.parent() {
        std::fs::remove_dir(parent).ok();
    }
    let (acc, tracer) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let metrics = if args.trace {
        per_layer(&acc, &tracer)
    } else {
        end_to_end(&acc)
    };
    let correct = acc.failed == 0;
    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        acc.attempted,
        acc.failed,
        metrics.json()
    )
    .and_then(|()| stdout.flush())
    .expect("stdout is writable");
    if args.trace {
        let out = Path::new(".perfbench_out");
        let path = out.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(out).and_then(|()| tracer.write_jsonl(&path)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    std::process::exit(if correct { 0 } else { 1 });
}
