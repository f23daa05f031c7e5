//! `SearchIndex` against a naive model: random scripts of `apply`,
//! `upsert_entry` and `remove_entry` over a handful of entries, checked
//! after every step against a `term → (entry → tf)` map recomputed from
//! the live entries with the plainest tokenizer. Queries, scoped queries,
//! the filter's call count and both counts must agree, and the maintained
//! index must equal a fresh `build` of the same entries, whatever ids its
//! history left it with.

use std::cell::Cell;
use std::collections::BTreeMap;

use bx::core::event::EntryDelta;
use bx::core::index::SearchIndex;
use bx::core::repo::{EntryRecord, RepositorySnapshot};
use bx::core::{EntryId, EntryStatus, ExampleEntry, RepoEvent};
use bx_testkit::ops::valid_entry;
use proptest::prelude::*;

/// The live entries: what the index should hold.
type Live = BTreeMap<EntryId, ExampleEntry>;

/// Term → (entry → term frequency).
type Model = BTreeMap<String, BTreeMap<EntryId, u32>>;

/// Words the scripts draw from: mixed case, 1-char words (never
/// indexed), digits, and non-ASCII letters (which split words).
const WORDS: [&str; 18] = [
    "lens", "Lens", "LENS", "put", "get", "PutGet", "a", "b", "x", "x1", "bx", "view", "source",
    "naïve", "Straße", "é", "schema", "42",
];

/// Separators, ASCII and not; the empty one glues two words together.
const SEPARATORS: [&str; 8] = [" ", "-", "—", "\t", ".", "é", "/", ""];

/// Queries asked after every step: present, absent, mixed-case,
/// conjunctive, 1-char and non-ASCII-split terms, and the empty query.
const QUERIES: [&[&str]; 16] = [
    &["lens"],
    &["LENS"],
    &["put"],
    &["putget"],
    &["x1"],
    &["na"],
    &["stra"],
    &["42"],
    &["a"],
    &["naïve"],
    &["zzz"],
    &["lens", "put"],
    &["Lens", "GET", "bx"],
    &["view", "source", "view"],
    &["schema", "zzz"],
    &[],
];

const ENTRIES: usize = 5;

fn entry_id(n: usize) -> EntryId {
    EntryId(format!("e{n}"))
}

/// An entry whose indexed text is `title` and `discussion` alone.
fn entry(title: &str, discussion: &str) -> ExampleEntry {
    let mut entry = valid_entry("Model", "placeholder");
    entry.title = title.to_string();
    entry.discussion = discussion.to_string();
    entry.overview.clear();
    entry.models.clear();
    entry.consistency.clear();
    entry.restoration.forward.clear();
    entry.restoration.backward.clear();
    entry.variants.clear();
    entry
}

/// The plainest tokenizer: split on anything not ASCII-alphanumeric,
/// keep tokens of 2 bytes or more, lowercase each one.
fn model_terms(entry: &ExampleEntry) -> BTreeMap<String, u32> {
    let mut terms = BTreeMap::new();
    for text in [&entry.title, &entry.discussion] {
        for token in text.split(|c: char| !c.is_ascii_alphanumeric()) {
            if token.len() >= 2 {
                *terms.entry(token.to_ascii_lowercase()).or_insert(0) += 1;
            }
        }
    }
    terms
}

fn model(live: &Live) -> Model {
    let mut model = Model::new();
    for (id, entry) in live {
        for (term, tf) in model_terms(entry) {
            model.entry(term).or_default().insert(id.clone(), tf);
        }
    }
    model
}

/// The model's conjunctive query: every entry holding all terms, with
/// the number of candidates (the smallest posting list) `keep` sees.
fn model_query(
    model: &Model,
    terms: &[&str],
    keep: impl Fn(&EntryId) -> bool,
) -> (Vec<(EntryId, u32)>, usize) {
    if terms.is_empty() {
        return (Vec::new(), 0);
    }
    let mut lists = Vec::new();
    for term in terms {
        match model.get(&term.to_ascii_lowercase()) {
            Some(posting) => lists.push(posting),
            None => return (Vec::new(), 0),
        }
    }
    let candidates = lists.iter().map(|p| p.len()).min().unwrap_or(0);
    let mut hits: Vec<(EntryId, u32)> = lists[0]
        .keys()
        .filter(|id| keep(id))
        .filter_map(|id| {
            let tfs: Option<Vec<u32>> = lists.iter().map(|p| p.get(id).copied()).collect();
            tfs.map(|tfs| (id.clone(), tfs.iter().sum()))
        })
        .collect();
    hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    (hits, candidates)
}

fn snapshot_of(live: &Live) -> RepositorySnapshot {
    let mut snapshot = RepositorySnapshot::empty("model");
    for (id, entry) in live {
        snapshot.records.insert(
            id.clone(),
            EntryRecord {
                status: EntryStatus::Provisional,
                history: vec![entry.clone()],
            },
        );
    }
    snapshot
}

/// Every observable of `index` agrees with the model of `live`, and
/// `index` equals a fresh build of `live`.
fn check(index: &SearchIndex, live: &Live) {
    let model = model(live);
    assert_eq!(index.term_count(), model.len(), "term_count");
    assert_eq!(index.entry_count(), live.len(), "entry_count");
    let even = |id: &EntryId| id.as_str().ends_with(['0', '2', '4']);
    for terms in QUERIES {
        assert_eq!(
            index.query(terms),
            model_query(&model, terms, |_| true).0,
            "{terms:?}"
        );
        let calls = Cell::new(0);
        let scoped = index.query_filtered(terms, |id| {
            calls.set(calls.get() + 1);
            even(id)
        });
        let (expected, candidates) = model_query(&model, terms, even);
        assert_eq!(scoped, expected, "scoped {terms:?}");
        assert_eq!(
            calls.get(),
            candidates,
            "keep runs once per candidate of {terms:?}"
        );
    }
    let built = SearchIndex::build(&snapshot_of(live));
    assert_eq!(index, &built, "maintained index == fresh build");
    assert_eq!(
        format!("{index:?}"),
        format!("{built:?}"),
        "Debug is the logical view"
    );
}

#[derive(Clone, Debug)]
enum Op {
    /// Index entry `n` with this text, through `upsert_entry` or, when
    /// `event` is set, through `apply` of a contribute or revise.
    Upsert {
        n: usize,
        title: String,
        discussion: String,
        event: bool,
    },
    /// Apply an approval carrying other text: never re-indexes.
    Approve {
        n: usize,
        discussion: String,
    },
    Remove {
        n: usize,
    },
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0..WORDS.len(), 0..SEPARATORS.len()), 0..8).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(w, s)| format!("{}{}", WORDS[w], SEPARATORS[s]))
            .collect()
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ENTRIES, arb_text(), arb_text(), prop::bool::ANY).prop_map(
            |(n, title, discussion, event)| Op::Upsert {
                n,
                title,
                discussion,
                event
            }
        ),
        (0..ENTRIES, arb_text()).prop_map(|(n, discussion)| Op::Approve { n, discussion }),
        (0..ENTRIES).prop_map(|n| Op::Remove { n }),
    ]
}

fn step(index: &mut SearchIndex, live: &mut Live, op: &Op) {
    match op {
        Op::Upsert {
            n,
            title,
            discussion,
            event,
        } => {
            let (id, entry) = (entry_id(*n), entry(title, discussion));
            if *event {
                let delta = EntryDelta {
                    id: id.clone(),
                    entry: entry.clone(),
                };
                index.apply(&if live.contains_key(&id) {
                    RepoEvent::Revised(delta)
                } else {
                    RepoEvent::Contributed(delta)
                });
            } else {
                index.upsert_entry(&id, &entry);
            }
            live.insert(id, entry);
        }
        Op::Approve { n, discussion } => index.apply(&RepoEvent::Approved(EntryDelta {
            id: entry_id(*n),
            entry: entry("approved", discussion),
        })),
        Op::Remove { n } => {
            let id = entry_id(*n);
            index.remove_entry(&id);
            live.remove(&id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maintained_index_matches_the_model_after_every_step(
        ops in prop::collection::vec(arb_op(), 0..40)
    ) {
        let (mut index, mut live) = (SearchIndex::default(), Live::new());
        for op in &ops {
            step(&mut index, &mut live, op);
            check(&index, &live);
        }
    }
}

fn upsert(index: &mut SearchIndex, live: &mut Live, n: usize, discussion: &str) {
    let op = Op::Upsert {
        n,
        title: String::new(),
        discussion: discussion.to_string(),
        event: false,
    };
    step(index, live, &op);
    check(index, live);
}

fn remove(index: &mut SearchIndex, live: &mut Live, n: usize) {
    step(index, live, &Op::Remove { n });
    check(index, live);
}

#[test]
fn a_term_whose_last_posting_goes_can_come_back() {
    let (mut index, mut live) = (SearchIndex::default(), Live::new());
    upsert(&mut index, &mut live, 0, "alpha beta");
    upsert(&mut index, &mut live, 1, "beta gamma");
    assert_eq!(index.term_count(), 3);
    remove(&mut index, &mut live, 0);
    assert_eq!(index.term_count(), 2, "alpha left with its last posting");
    assert!(index.query(&["alpha"]).is_empty());
    // A new term takes the freed id; the old one returns on another id.
    upsert(&mut index, &mut live, 2, "delta");
    upsert(&mut index, &mut live, 3, "alpha alpha delta");
    assert_eq!(index.query(&["alpha"]), vec![(entry_id(3), 2)]);
    assert_eq!(
        index.query(&["delta"]),
        vec![(entry_id(2), 1), (entry_id(3), 1)]
    );
    // Rewriting an entry drops the terms only it used.
    upsert(&mut index, &mut live, 1, "epsilon");
    assert!(index.query(&["gamma"]).is_empty() && index.query(&["beta"]).is_empty());
}

#[test]
fn removing_every_entry_leaves_no_terms() {
    let (mut index, mut live) = (SearchIndex::default(), Live::new());
    for n in 0..ENTRIES {
        upsert(&mut index, &mut live, n, &format!("shared word{n} lens"));
    }
    for n in (0..ENTRIES).rev() {
        remove(&mut index, &mut live, n);
    }
    assert_eq!((index.term_count(), index.entry_count()), (0, 0));
    assert_eq!(index, SearchIndex::default());
    assert!(index.query(&["shared"]).is_empty());
    // Removing what is not indexed is a no-op.
    remove(&mut index, &mut live, 0);
    upsert(&mut index, &mut live, 4, "shared again");
    assert_eq!(index.query(&["shared"]), vec![(entry_id(4), 1)]);
}

#[test]
fn case_folds_and_non_ascii_characters_split_words() {
    let (mut index, mut live) = (SearchIndex::default(), Live::new());
    upsert(&mut index, &mut live, 0, "Lens—PUT/get naïve Straße LENS");
    assert_eq!(index.query(&["lens"]), vec![(entry_id(0), 2)]);
    assert_eq!(index.query(&["LeNs", "Put", "GET"]), vec![(entry_id(0), 4)]);
    // `ï` and `ß` are separators: "naïve" is "na" + "ve", "Straße" is
    // "stra" + a dropped "e".
    for term in ["na", "ve", "stra"] {
        assert_eq!(index.query(&[term]).len(), 1, "{term}");
    }
    assert!(index.query(&["naïve"]).is_empty() && index.query(&["e"]).is_empty());
    assert_eq!(index.term_count(), 6);
}

#[test]
fn one_character_tokens_are_not_indexed() {
    let (mut index, mut live) = (SearchIndex::default(), Live::new());
    upsert(&mut index, &mut live, 0, "a b c x1 é z 9 go");
    assert_eq!(index.term_count(), 2, "only x1 and go");
    for term in ["a", "b", "c", "z", "9"] {
        assert!(index.query(&[term]).is_empty(), "{term}");
    }
    assert_eq!(index.query(&["x1", "go"]), vec![(entry_id(0), 2)]);
}
