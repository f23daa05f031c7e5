//! Findability (§5.2): keyword search over entries plus type and property
//! filters. "Ensuring that the wiki is google indexed goes a long way" —
//! this is the in-process equivalent.
//!
//! The index is maintainable two ways: [`SearchIndex::build`] from a full
//! snapshot, or incrementally via [`SearchIndex::apply`] over the
//! repository's [`RepoEvent`] delta stream. The two are equivalent: for
//! any mutation sequence, applying its events to the previous index gives
//! exactly the index built from the resulting snapshot (property-tested in
//! `tests/delta_equivalence.rs`). Incremental maintenance only re-tokenises
//! the touched entry, so its cost scales with the change, not the
//! repository.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;

use bx_theory::{Claim, Property};

use crate::event::RepoEvent;
use crate::repo::{EntryId, RepositorySnapshot};
use crate::template::{ExampleEntry, ExampleType};

thread_local! {
    /// Test/bench instrumentation: how many entries this thread has
    /// tokenised. Lets tests assert that the incremental path really does
    /// skip untouched entries.
    static ENTRIES_TOKENIZED: Cell<u64> = const { Cell::new(0) };
}

/// Number of entries tokenised by this thread so far (build and apply
/// both count). Instrumentation for tests and benches.
pub fn entries_tokenized() -> u64 {
    ENTRIES_TOKENIZED.with(Cell::get)
}

/// An inverted index over the latest versions of all entries, plus the
/// forward index (entry → term frequencies) that makes exact incremental
/// removal possible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchIndex {
    /// term → (entry → term frequency)
    postings: BTreeMap<String, BTreeMap<EntryId, u32>>,
    /// entry → (term → term frequency): what `apply` must retract when an
    /// entry's text changes.
    terms_of: BTreeMap<EntryId, BTreeMap<String, u32>>,
}

/// Lowercase alphanumeric tokens of length ≥ 2.
fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| t.len() >= 2)
        .map(str::to_ascii_lowercase)
}

/// The query-side case fold. Most query terms arrive already lowercase
/// (programmatic callers, repeated searches), so borrow in that common
/// case and only allocate when an uppercase byte forces a rewrite.
fn fold_term(term: &str) -> Cow<'_, str> {
    if term.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(term.to_ascii_lowercase())
    } else {
        Cow::Borrowed(term)
    }
}

fn entry_text(entry: &ExampleEntry) -> String {
    let mut text = String::with_capacity(512);
    for part in [
        entry.title.as_str(),
        entry.overview.as_str(),
        entry.models.as_str(),
        entry.consistency.as_str(),
        entry.restoration.forward.as_str(),
        entry.restoration.backward.as_str(),
        entry.discussion.as_str(),
    ] {
        text.push_str(part);
        text.push(' ');
    }
    for v in &entry.variants {
        text.push_str(&v.name);
        text.push(' ');
        text.push_str(&v.description);
        text.push(' ');
    }
    text
}

fn term_frequencies(entry: &ExampleEntry) -> BTreeMap<String, u32> {
    ENTRIES_TOKENIZED.with(|c| c.set(c.get() + 1));
    let mut terms = BTreeMap::new();
    for token in tokenize(&entry_text(entry)) {
        *terms.entry(token).or_insert(0) += 1;
    }
    terms
}

impl SearchIndex {
    /// Build from a repository snapshot (latest versions only).
    pub fn build(snapshot: &RepositorySnapshot) -> SearchIndex {
        let mut idx = SearchIndex::default();
        for (id, record) in &snapshot.records {
            idx.upsert(id, record.latest());
        }
        idx
    }

    /// Incrementally maintain the index from one repository delta. Only
    /// events that change an entry's indexed text (contribute / revise)
    /// do any work; approvals (which bump only version and reviewers,
    /// neither indexed), comments, status moves and account changes are
    /// no-ops. Equivalent to rebuilding from the post-event snapshot.
    pub fn apply(&mut self, event: &RepoEvent) {
        match event {
            RepoEvent::Contributed(d) | RepoEvent::Revised(d) => {
                self.upsert(&d.id, &d.entry);
            }
            RepoEvent::Founded(_)
            | RepoEvent::Registered(_)
            | RepoEvent::RoleGranted(_)
            | RepoEvent::Approved(_)
            | RepoEvent::Commented(_)
            | RepoEvent::ReviewRequested(_)
            | RepoEvent::ChangesRequested(_) => {}
        }
    }

    /// Re-index one entry from its latest version directly, bypassing the
    /// event stream — the re-base path of [`crate::replica::Replica`],
    /// which after a primary checkpoint has a target *snapshot* but no
    /// events for the gap. Equivalent to applying a revise event carrying
    /// `entry`.
    pub fn upsert_entry(&mut self, id: &EntryId, entry: &ExampleEntry) {
        self.upsert(id, entry);
    }

    /// Retract one entry entirely (no-op if it was never indexed) — the
    /// counterpart of [`SearchIndex::upsert_entry`] for entries a re-base
    /// target no longer contains.
    pub fn remove_entry(&mut self, id: &EntryId) {
        self.remove(id);
    }

    /// Merge a partial index covering a *disjoint* set of entries into
    /// this one — the gather step of the parallel derived-state rebuild
    /// ([`crate::replica::Replica::open_on`]), where each worker
    /// indexes its own shard of entries. With disjoint entry sets the
    /// result is exactly the index of the union (both maps key on terms
    /// and entry ids, so disjoint inserts cannot collide).
    pub(crate) fn absorb(&mut self, other: SearchIndex) {
        for (term, posting) in other.postings {
            self.postings.entry(term).or_default().extend(posting);
        }
        self.terms_of.extend(other.terms_of);
    }

    /// Replace (or first-index) one entry's postings.
    fn upsert(&mut self, id: &EntryId, entry: &ExampleEntry) {
        self.remove(id);
        let terms = term_frequencies(entry);
        for (term, tf) in &terms {
            self.postings
                .entry(term.clone())
                .or_default()
                .insert(id.clone(), *tf);
        }
        self.terms_of.insert(id.clone(), terms);
    }

    /// Retract one entry's postings (no-op if it was never indexed).
    fn remove(&mut self, id: &EntryId) {
        let Some(terms) = self.terms_of.remove(id) else {
            return;
        };
        for term in terms.keys() {
            if let Some(posting) = self.postings.get_mut(term) {
                posting.remove(id);
                if posting.is_empty() {
                    self.postings.remove(term);
                }
            }
        }
    }

    /// Number of distinct indexed terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Number of indexed entries.
    pub fn entry_count(&self) -> usize {
        self.terms_of.len()
    }

    /// Conjunctive keyword query: entries containing *all* terms, scored
    /// by summed term frequency, sorted by descending score then id.
    ///
    /// Intersects borrowed posting lists (driven from the smallest one)
    /// without cloning any posting map; only the result ids are cloned.
    pub fn query(&self, terms: &[&str]) -> Vec<(EntryId, u32)> {
        self.query_filtered(terms, |_| true)
    }

    /// [`SearchIndex::query`] restricted to entries `keep` accepts — the
    /// serving path for scoped search (e.g. a [`crate::replica::Federation`]
    /// restricting hits to one source's namespace) without materializing
    /// a per-scope index. The filter runs on candidate ids *before* the
    /// full conjunction is scored, so rejected entries cost one check.
    pub fn query_filtered(
        &self,
        terms: &[&str],
        keep: impl Fn(&EntryId) -> bool,
    ) -> Vec<(EntryId, u32)> {
        if terms.is_empty() {
            return Vec::new();
        }
        let mut postings: Vec<&BTreeMap<EntryId, u32>> = Vec::with_capacity(terms.len());
        for term in terms {
            match self.postings.get(fold_term(term).as_ref()) {
                Some(posting) => postings.push(posting),
                // One absent term empties the conjunction.
                None => return Vec::new(),
            }
        }
        postings.sort_by_key(|p| p.len());
        let (smallest, rest) = postings.split_first().expect("terms is non-empty");
        let mut out: Vec<(EntryId, u32)> = Vec::new();
        'candidates: for (id, tf) in *smallest {
            if !keep(id) {
                continue;
            }
            let mut score = *tf;
            for posting in rest {
                match posting.get(id) {
                    Some(tf) => score += tf,
                    None => continue 'candidates,
                }
            }
            out.push((id.clone(), score));
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// Entries of a given type, in id order.
pub fn entries_of_type(snapshot: &RepositorySnapshot, ty: ExampleType) -> Vec<EntryId> {
    snapshot
        .records
        .iter()
        .filter(|(_, r)| r.latest().types.contains(&ty))
        .map(|(id, _)| id.clone())
        .collect()
}

/// Entries claiming a property (with either polarity), in id order.
pub fn entries_claiming(snapshot: &RepositorySnapshot, property: Property) -> Vec<EntryId> {
    snapshot
        .records
        .iter()
        .filter(|(_, r)| r.latest().properties.iter().any(|c| c.property == property))
        .map(|(id, _)| id.clone())
        .collect()
}

/// Entries with exactly the given claim (property + polarity).
pub fn entries_with_claim(snapshot: &RepositorySnapshot, claim: Claim) -> Vec<EntryId> {
    snapshot
        .records
        .iter()
        .filter(|(_, r)| r.latest().properties.contains(&claim))
        .map(|(id, _)| id.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::Principal;
    use crate::repo::Repository;
    use crate::template::ExampleEntry;
    use bx_theory::Polarity;

    fn repository() -> Repository {
        let r = Repository::found("r", vec![Principal::curator("c")]);
        r.register(Principal::member("a")).unwrap();
        let composers = ExampleEntry::builder("COMPOSERS")
            .of_type(ExampleType::Precise)
            .overview("Composers with names and nationalities.")
            .models("A set of composer objects; a list of pairs.")
            .consistency("Same pairs both sides.")
            .restoration("Delete and append composers.", "Delete and add composers.")
            .discussion("Undoability is too strong for composers.")
            .property(Claim::holds(Property::Correct))
            .property(Claim::fails(Property::Undoable))
            .author("a")
            .build()
            .unwrap();
        let uml = ExampleEntry::builder("UML2RDBMS")
            .of_type(ExampleType::Precise)
            .of_type(ExampleType::Benchmark)
            .overview("Class diagrams to database schemas.")
            .models("UML class diagrams; RDBMS schemas.")
            .consistency("Classes correspond to tables.")
            .restoration("Regenerate tables.", "Regenerate classes.")
            .discussion("The notorious example.")
            .property(Claim::holds(Property::Correct))
            .author("a")
            .build()
            .unwrap();
        r.contribute("a", composers).unwrap();
        r.contribute("a", uml).unwrap();
        r
    }

    fn snapshot() -> RepositorySnapshot {
        repository().snapshot()
    }

    #[test]
    fn single_term_query_scores_by_tf() {
        let idx = SearchIndex::build(&snapshot());
        let hits = idx.query(&["composers"]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.as_str(), "composers");
        assert!(hits[0].1 >= 3, "composers appears several times");
    }

    #[test]
    fn conjunctive_query() {
        let idx = SearchIndex::build(&snapshot());
        // "consistency" names a template *field*, not body text of either
        // entry, so it must hit nothing — the index covers content only.
        let both = idx.query(&["consistency"]);
        assert!(both.is_empty(), "field names are not indexed: {both:?}");
        let uml_only = idx.query(&["tables", "classes"]);
        assert_eq!(uml_only.len(), 1);
        assert_eq!(uml_only[0].0.as_str(), "uml2rdbms");
        let none = idx.query(&["tables", "composers"]);
        assert!(none.is_empty());
    }

    #[test]
    fn filtered_query_scopes_candidates() {
        let idx = SearchIndex::build(&snapshot());
        // Both entries mention "composers"/"classes" disjointly; scope
        // by id and check the unscoped query is the trivial filter.
        let all = idx.query(&["correspond"]);
        assert_eq!(
            all,
            idx.query_filtered(&["correspond"], |_| true),
            "query is query_filtered with the trivial filter"
        );
        let scoped = idx.query_filtered(&["regenerate"], |id| id.as_str().starts_with("uml"));
        assert_eq!(scoped.len(), 1);
        assert_eq!(scoped[0].0.as_str(), "uml2rdbms");
        let none = idx.query_filtered(&["regenerate"], |id| id.as_str().starts_with("zzz"));
        assert!(none.is_empty());
    }

    #[test]
    fn case_insensitive_queries() {
        let idx = SearchIndex::build(&snapshot());
        assert_eq!(idx.query(&["UML2RDBMS"]).len(), 1);
        assert_eq!(idx.query(&["CoMpOsErS"]).len(), 1);
    }

    #[test]
    fn term_fold_borrows_when_already_lowercase() {
        // The hot path — an already-lowercase term — must not allocate.
        assert!(matches!(fold_term("composers"), Cow::Borrowed(_)));
        assert!(matches!(fold_term("uml2rdbms"), Cow::Borrowed(_)));
        assert!(matches!(fold_term(""), Cow::Borrowed(_)));
        // Any uppercase byte forces the owned rewrite.
        assert!(matches!(fold_term("Composers"), Cow::Owned(_)));
        assert!(matches!(fold_term("uml2RDBMS"), Cow::Owned(_)));
    }

    #[test]
    fn mixed_case_and_lowercase_terms_agree() {
        let idx = SearchIndex::build(&snapshot());
        // Mixed-case, already-lowercase, and all-caps spellings of the
        // same conjunction hit identical results through both the plain
        // and the filtered query paths.
        let lower = idx.query(&["tables", "classes"]);
        assert_eq!(lower, idx.query(&["Tables", "CLASSES"]));
        assert_eq!(lower, idx.query_filtered(&["tAbLeS", "classes"], |_| true));
        assert!(!lower.is_empty());
    }

    #[test]
    fn empty_query_returns_nothing() {
        let idx = SearchIndex::build(&snapshot());
        assert!(idx.query(&[]).is_empty());
        assert!(idx.query(&["zzzznothing"]).is_empty());
    }

    #[test]
    fn counts_exposed() {
        let idx = SearchIndex::build(&snapshot());
        assert_eq!(idx.entry_count(), 2);
        assert!(idx.term_count() > 10);
    }

    #[test]
    fn apply_tracks_contribute_and_revise() {
        let r = repository();
        let mut idx = SearchIndex::build(&r.snapshot());
        r.drain_events(); // already reflected by the build

        let id = EntryId::from_title("COMPOSERS");
        let mut edited = r.latest(&id).unwrap();
        edited.discussion = "Now mentioning zygohistomorphic prepromorphisms.".to_string();
        r.revise("a", &id, edited).unwrap();

        for event in r.drain_events() {
            idx.apply(&event);
        }
        assert_eq!(idx, SearchIndex::build(&r.snapshot()));
        assert_eq!(idx.query(&["zygohistomorphic"]).len(), 1);
        assert!(
            idx.query(&["undoability"]).is_empty(),
            "postings of the replaced version are retracted"
        );
    }

    #[test]
    fn apply_only_tokenizes_touched_entries() {
        let r = repository();
        let mut idx = SearchIndex::build(&r.snapshot());
        r.drain_events();

        let id = EntryId::from_title("UML2RDBMS");
        let mut edited = r.latest(&id).unwrap();
        edited.overview = "Schemas, regenerated incrementally.".to_string();
        r.revise("a", &id, edited).unwrap();
        r.comment("a", &id, "2014-01-01", "status-only traffic")
            .unwrap();

        let before = entries_tokenized();
        for event in r.drain_events() {
            idx.apply(&event);
        }
        assert_eq!(
            entries_tokenized() - before,
            1,
            "one revise = one entry re-tokenised; the comment is free"
        );
        assert_eq!(idx, SearchIndex::build(&r.snapshot()));
    }

    #[test]
    fn type_filter() {
        let s = snapshot();
        let precise = entries_of_type(&s, ExampleType::Precise);
        assert_eq!(precise.len(), 2);
        let bench = entries_of_type(&s, ExampleType::Benchmark);
        assert_eq!(bench.len(), 1);
        assert_eq!(bench[0].as_str(), "uml2rdbms");
        assert!(entries_of_type(&s, ExampleType::Sketch).is_empty());
    }

    #[test]
    fn property_filters() {
        let s = snapshot();
        let correct = entries_claiming(&s, Property::Correct);
        assert_eq!(correct.len(), 2);
        let not_undoable = entries_with_claim(&s, Claim::fails(Property::Undoable));
        assert_eq!(not_undoable.len(), 1);
        assert_eq!(not_undoable[0].as_str(), "composers");
        assert!(entries_with_claim(&s, Claim::holds(Property::Undoable)).is_empty());
        let _ = Polarity::Holds;
    }
}
