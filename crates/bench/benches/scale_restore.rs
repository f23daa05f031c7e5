//! E10 — the COMPOSERS-AT-SCALE benchmark entry: restoration cost versus
//! model size under the standard perturbation (drop every 10th entry,
//! append n/10 fresh ones). Expected shape: O(n log n) from the sorted
//! set operations, in both directions.
//!
//! Plus `scale_restore/eventlog` — cold crash-recovery at log scale: the
//! same 1,000,000-event history restored from a JSONL directory and from
//! a binary segmented directory ([`bx_core::BinaryLogBackend`]), both
//! through the format-aware [`EventLogBackend::restore_dir`] a restart
//! actually runs. Current numbers, and the binary : JSONL ratio, live in
//! the README's binary log format section.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bx_core::event::{Commented, RepoEvent};
use bx_core::storage::{EventLogBackend, StorageBackend};
use bx_core::template::Comment;
use bx_core::{BinaryLogBackend, Principal, Repository};
use bx_examples::benchmark::{generate_composers, pairs_of, perturb_pairs, Lcg};
use bx_examples::composers::composers_bx;
use bx_theory::Bx;

fn bench_scale(c: &mut Criterion) {
    let b = composers_bx();
    let mut group = c.benchmark_group("scale_restore/composers");
    for &n in &[100usize, 400, 1600, 6400] {
        let m = generate_composers(n, 11);
        let good = pairs_of(&m);
        let perturbed = perturb_pairs(&good, 10, n / 10, 11);
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("fwd", n), &(), |bench, _| {
            bench.iter(|| b.fwd(&m, &perturbed))
        });
        group.bench_with_input(BenchmarkId::new("bwd", n), &(), |bench, _| {
            bench.iter(|| b.bwd(&m, &perturbed))
        });
        group.bench_with_input(BenchmarkId::new("consistency", n), &(), |bench, _| {
            bench.iter(|| b.consistent(&m, &good))
        });
        group.bench_with_input(BenchmarkId::new("fwd_hippocratic", n), &(), |bench, _| {
            bench.iter(|| b.fwd(&m, &good))
        });
    }
    group.finish();
}

/// A synthetic but structurally realistic history of exactly `n`
/// events: founding + cast + 64 full entry contributions, then comments
/// cycling over those entries — the "long-lived repository" shape where
/// replay cost is dominated by event volume, not entry size.
fn event_history(n: usize) -> Vec<RepoEvent> {
    let repo = Repository::found("bench-scale", vec![Principal::curator("curator")]);
    repo.register(Principal::member("bench-bot")).unwrap();
    let mut rng = Lcg::new(0xBEEF);
    let mut ids = Vec::new();
    for i in 0..64 {
        ids.push(
            repo.contribute("bench-bot", bx_bench::synthetic_entry(i, &mut rng))
                .unwrap(),
        );
    }
    let mut events = repo.drain_events();
    let mut i = 0usize;
    while events.len() < n {
        events.push(RepoEvent::Commented(Commented {
            id: ids[i % ids.len()].clone(),
            comment: Comment {
                author: "bench-bot".into(),
                date: "2014-03-28".into(),
                text: format!("scale comment {i}: a sentence of plausible discussion prose."),
            },
        }));
        i += 1;
    }
    events
}

fn bench_log_restore(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let events = event_history(N);
    let base = std::env::temp_dir().join(format!("bx-bench-scale-restore-{}", std::process::id()));
    let jsonl = base.join("jsonl");
    let binary = base.join("binary");
    std::fs::remove_dir_all(&base).ok();
    {
        let mut backend = EventLogBackend::open(&jsonl).expect("event log opens");
        backend.record(&events).expect("records");
        backend.flush_durable().expect("fsync records");
    }
    {
        let mut backend = BinaryLogBackend::open(&binary).expect("binary log opens");
        backend.record(&events).expect("records");
        backend.flush_durable().expect("fsync records");
    }
    drop(events);

    let mut group = c.benchmark_group("scale_restore/eventlog");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    // `iter_with_large_drop`: deallocating the previous restored snapshot
    // (~0.4 s at this scale, identical for both formats) is not restore
    // work and would flatten the measured ratio between the formats.
    group.bench_with_input(BenchmarkId::new("jsonl-cold", N), &(), |b, _| {
        b.iter_with_large_drop(|| EventLogBackend::restore_dir(&jsonl).expect("restores"))
    });
    group.bench_with_input(BenchmarkId::new("binary-cold", N), &(), |b, _| {
        b.iter_with_large_drop(|| EventLogBackend::restore_dir(&binary).expect("restores"))
    });
    group.finish();
    std::fs::remove_dir_all(&base).ok();
}

criterion_group!(benches, bench_scale, bench_log_restore);
criterion_main!(benches);
