//! E12 — the federated serving tier: what a fan-in read node costs as
//! sources multiply. Three rows per source count: the cold open (full
//! per-source fold + index + site build), the steady-state idle poll
//! (per-source metadata stats, no parsing), and federated vs
//! source-scoped query over the merged index. The cold-open : idle-poll
//! gap is the argument for the long-lived `ReplicaDaemon` over
//! open-per-request serving.
//!
//! The `shared_runtime` rows push the fan-in to 64+ sources beside ONE
//! bounded [`Runtime`] pool — the cold open, then a full daemon catch-up
//! cycle beside per-source durability writers on that pool, none of
//! which publishes on the unified health channel while idle — the
//! deployment shape the runtime tier exists for (dozens of tenants,
//! thread count = pool width).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bx_bench::scaled_repository;
use bx_core::pipeline::{BackgroundWriter, PipelineConfig};
use bx_core::replica::{DaemonConfig, Federation, ReplicaDaemon, SourceId};
use bx_core::runtime::Runtime;
use bx_core::storage::{EventLogBackend, StorageBackend};

/// Seed `n` source directories, each a scaled repository's event log
/// (identical synthetic titles across sources — the collision the
/// namespacing exists for).
fn seed_sources(n: usize, entries_each: usize) -> Vec<(SourceId, PathBuf)> {
    (0..n)
        .map(|i| {
            let dir = std::env::temp_dir().join(format!(
                "bx-bench-federation-{}-{i}-{entries_each}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let repo = scaled_repository(entries_each);
            let mut backend = EventLogBackend::open(&dir).expect("event log opens");
            backend.record(&repo.drain_events()).expect("seed records");
            backend.flush_durable().expect("fsync seed records");
            (SourceId::new(&format!("s{i}")), dir)
        })
        .collect()
}

fn bench_federation(c: &mut Criterion) {
    let mut group = c.benchmark_group("federation");
    group.sample_size(10);
    for &n_sources in &[2usize, 8] {
        let sources = seed_sources(n_sources, 40);

        group.bench_with_input(
            BenchmarkId::new("cold_open", n_sources),
            &sources,
            |b, sources| b.iter(|| Federation::open("fed", sources.clone()).expect("opens")),
        );

        let mut federation = Federation::open("fed", sources.clone()).expect("opens");
        group.bench_with_input(BenchmarkId::new("idle_poll", n_sources), &(), |b, ()| {
            b.iter(|| {
                let progress = federation.catch_up().expect("sources present");
                assert_eq!(progress.events_applied, 0, "idle means idle");
            })
        });

        let read_only = Federation::open("fed", sources.clone()).expect("opens");
        group.bench_with_input(
            BenchmarkId::new("query_federated", n_sources),
            &read_only,
            |b, federation| b.iter(|| federation.query(&["synthetic", "databases"])),
        );
        let scope = SourceId::new("s0");
        group.bench_with_input(
            BenchmarkId::new("query_one_source", n_sources),
            &read_only,
            |b, federation| b.iter(|| federation.query_source(&scope, &["synthetic", "databases"])),
        );

        for (_, dir) in &sources {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    // 64 sources, one shared 8-worker runtime: the node shape the
    // runtime tier targets. Thread count stays at the pool width no
    // matter how many tenants ride it.
    for &n_sources in &[64usize] {
        let sources = seed_sources(n_sources, 4);
        let runtime = Runtime::named("bx-bench-fed", 8);

        group.bench_with_input(
            BenchmarkId::new("shared_runtime_cold_open", n_sources),
            &sources,
            |b, sources| b.iter(|| Federation::open("fed", sources.clone()).expect("opens")),
        );

        // One daemon catch-up cycle per iteration, with every source
        // also hosting a durability writer tenant on the same pool —
        // each under its own component ("writer:s<i>", "daemon") on the
        // one health channel, which stays empty while they idle.
        let writers: Vec<Arc<BackgroundWriter>> = sources
            .iter()
            .enumerate()
            .map(|(i, (_, dir))| {
                Arc::new(BackgroundWriter::on_runtime(
                    EventLogBackend::open(dir).expect("reopens"),
                    PipelineConfig::default(),
                    &runtime,
                    &format!("writer:s{i}"),
                ))
            })
            .collect();
        let federation = Federation::open("fed", sources.clone()).expect("opens");
        let daemon = ReplicaDaemon::spawn_on(
            federation,
            DaemonConfig {
                // Long interval: the bench forces passes itself.
                poll_interval: Duration::from_secs(60),
            },
            &runtime,
            "daemon",
        );
        group.bench_with_input(
            BenchmarkId::new("shared_runtime_poll_cycle", n_sources),
            &(),
            |b, ()| {
                b.iter(|| {
                    let progress = daemon.force_catch_up().expect("sources present");
                    assert_eq!(progress.events_applied, 0, "idle means idle");
                })
            },
        );
        assert_eq!(
            runtime.pool_stats().threads,
            8,
            "64 sources + 64 writers + 1 daemon on 8 bounded workers"
        );
        assert!(
            runtime.health().drain().is_empty(),
            "idle passes and idle writers publish nothing"
        );
        drop(daemon);
        for writer in writers {
            writer.shutdown().expect("idle writers close clean");
        }
        for (_, dir) in &sources {
            std::fs::remove_dir_all(dir).ok();
        }
    }
    group.finish();
}

criterion_group!(benches, bench_federation);
criterion_main!(benches);
