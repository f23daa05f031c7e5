//! # bx-bench
//!
//! Shared workload builders for the criterion benches. Each bench target
//! measures one experiment series (E1–E13, named in its module docs);
//! this crate keeps the workload construction out of the measurement
//! loops.

use std::collections::BTreeMap;

use bx_core::repo::RepositorySnapshot;
use bx_core::{EntryId, ExampleEntry, ExampleType, Principal, Repository};
use bx_examples::benchmark::Lcg;
use bx_examples::uml2rdbms::{RdbModel, UmlModel};

/// A synthetic-but-valid repository entry, used to scale the repository
/// beyond the 10 standard entries for index/wiki benches.
pub fn synthetic_entry(i: usize, rng: &mut Lcg) -> ExampleEntry {
    let topics = [
        "lenses",
        "triple graph grammars",
        "schema mappings",
        "spreadsheets",
        "provenance",
    ];
    let domains = [
        "databases",
        "model driven development",
        "programming languages",
    ];
    let topic = topics[rng.below(topics.len())];
    let domain = domains[rng.below(domains.len())];
    ExampleEntry::builder(&format!("SYNTH-{i:05}"))
        .of_type(ExampleType::Precise)
        .overview(&format!(
            "A synthetic entry about {topic} for {domain}. Generated for benchmarking."
        ))
        .models(&format!(
            "Two model classes drawn from {domain}, related through {topic}."
        ))
        .consistency(&format!("The usual consistency relation for {topic}."))
        .restoration(
            &format!("Forward restoration repairs the {domain} side."),
            &format!("Backward restoration repairs the {topic} side."),
        )
        .discussion(&format!(
            "Synthetic benchmark entry number {i}, mentioning {topic} and {domain}."
        ))
        .author("bench-bot")
        .build()
        .expect("synthetic entries are template-valid")
}

/// A repository with the 10 standard entries plus `extra` synthetic ones.
pub fn scaled_repository(extra: usize) -> Repository {
    let repo = bx_examples::standard_repository();
    repo.register(Principal::member("bench-bot"))
        .expect("fresh account");
    let mut rng = Lcg::new(0xB01D);
    for i in 0..extra {
        let entry = synthetic_entry(i, &mut rng);
        repo.contribute("bench-bot", entry)
            .expect("synthetic entries are valid and distinct");
    }
    repo
}

/// The pre-refactor `SearchIndex::query` as a measurable baseline: it
/// cloned one whole posting map per query term. The `index_incremental`
/// bench pits this against the borrowing intersection that replaced it.
/// Same tokenisation, same scoring, same ordering — only the per-term
/// clone differs.
#[derive(Debug, Clone, Default)]
pub struct CloningIndex {
    postings: BTreeMap<String, BTreeMap<EntryId, u32>>,
}

impl CloningIndex {
    /// Build from a snapshot, mirroring `SearchIndex::build`'s postings.
    pub fn build(snapshot: &RepositorySnapshot) -> CloningIndex {
        let mut idx = CloningIndex::default();
        for (id, record) in &snapshot.records {
            let e = record.latest();
            let mut text = String::new();
            for part in [
                e.title.as_str(),
                e.overview.as_str(),
                e.models.as_str(),
                e.consistency.as_str(),
                e.restoration.forward.as_str(),
                e.restoration.backward.as_str(),
                e.discussion.as_str(),
            ] {
                text.push_str(part);
                text.push(' ');
            }
            for v in &e.variants {
                text.push_str(&v.name);
                text.push(' ');
                text.push_str(&v.description);
                text.push(' ');
            }
            for token in text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|t| t.len() >= 2)
                .map(str::to_ascii_lowercase)
            {
                *idx.postings
                    .entry(token)
                    .or_default()
                    .entry(id.clone())
                    .or_insert(0) += 1;
            }
        }
        idx
    }

    /// The old conjunctive query: clones each term's full posting map.
    pub fn query(&self, terms: &[&str]) -> Vec<(EntryId, u32)> {
        let mut scores: Option<BTreeMap<EntryId, u32>> = None;
        for term in terms {
            let term = term.to_ascii_lowercase();
            let posting = self.postings.get(&term).cloned().unwrap_or_default();
            scores = Some(match scores {
                None => posting,
                Some(prev) => prev
                    .into_iter()
                    .filter_map(|(id, score)| posting.get(&id).map(|tf| (id, score + tf)))
                    .collect(),
            });
        }
        let mut out: Vec<(EntryId, u32)> = scores.unwrap_or_default().into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// A UML model with `n` persistent classes (plus `n / 4` transient ones),
/// each with four attributes.
pub fn uml_of_size(n: usize) -> UmlModel {
    let mut m = UmlModel::default();
    for i in 0..n {
        m = m.with_class(
            &format!("Class{i:04}"),
            true,
            &[
                ("id", "Integer", true),
                ("name", "String", false),
                ("active", "Boolean", false),
                ("rank", "Integer", false),
            ],
        );
    }
    for i in 0..n / 4 {
        m = m.with_class(
            &format!("Transient{i:04}"),
            false,
            &[("token", "String", false)],
        );
    }
    m
}

/// The consistent schema of a UML model.
pub fn schema_of(uml: &UmlModel) -> RdbModel {
    use bx_theory::Bx;
    bx_examples::uml2rdbms::uml2rdbms_bx().fwd(uml, &RdbModel::default())
}

/// Drop `k` tables from a schema (the perturbation for backward runs).
pub fn drop_tables(rdb: &RdbModel, k: usize) -> RdbModel {
    let mut out = rdb.clone();
    let names: Vec<String> = out.tables.keys().take(k).cloned().collect();
    for n in names {
        out.tables.remove(&n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_theory::Bx;

    #[test]
    fn scaled_repository_has_standard_plus_extra() {
        let repo = scaled_repository(25);
        assert_eq!(repo.len(), 38);
    }

    #[test]
    fn cloning_baseline_agrees_with_search_index() {
        let snap = scaled_repository(25).snapshot();
        let new = bx_core::index::SearchIndex::build(&snap);
        let old = CloningIndex::build(&snap);
        for terms in [
            &["lenses"][..],
            &["synthetic", "databases"][..],
            &["synthetic", "databases", "benchmarking"][..],
            &["zzznonexistent"][..],
        ] {
            assert_eq!(old.query(terms), new.query(terms), "terms {terms:?}");
        }
    }

    #[test]
    fn synthetic_entries_are_distinct_and_valid() {
        let mut rng = Lcg::new(1);
        let a = synthetic_entry(0, &mut rng);
        let b = synthetic_entry(1, &mut rng);
        assert_ne!(a.slug(), b.slug());
        assert!(a.validate().is_empty());
    }

    #[test]
    fn uml_workloads_are_consistent_with_their_schemas() {
        let uml = uml_of_size(16);
        let rdb = schema_of(&uml);
        assert!(bx_examples::uml2rdbms::uml2rdbms_bx().consistent(&uml, &rdb));
        assert_eq!(rdb.tables.len(), 16);
        let dropped = drop_tables(&rdb, 4);
        assert_eq!(dropped.tables.len(), 12);
    }
}
