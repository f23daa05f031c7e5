//! Findability (§5.2): keyword search over entries plus type and property
//! filters. "Ensuring that the wiki is google indexed goes a long way" —
//! this is the in-process equivalent.
//!
//! The index is maintainable two ways: [`SearchIndex::build`] from a full
//! snapshot, or incrementally via [`SearchIndex::apply`] over the
//! repository's [`RepoEvent`] delta stream. The two are equivalent: for
//! any mutation sequence, applying its events to the previous index gives
//! exactly the index built from the resulting snapshot (property-tested in
//! `tests/delta_equivalence.rs` and, against a naive model, in
//! `tests/index_model.rs`). Incremental maintenance only re-tokenises the
//! touched entry, so its cost scales with the change, not the repository.
//!
//! # Layout
//!
//! Terms and entries are interned to dense `u32` ids. A vocabulary maps
//! each term's text to its term id; each term id owns its postings as a
//! `(doc, tf)` list sorted by doc. Each indexed entry is a doc that holds
//! its [`EntryId`] and its forward list of `(term, tf)` sorted by term id,
//! which is exactly what a re-index or removal must retract. A build
//! hands out docs in ascending order, so every posting is a push; later
//! upserts insert at a binary-searched position. A term whose last posting goes
//! leaves the vocabulary and its id is reused, as is a removed entry's
//! doc, so memory tracks live content.
//!
//! Which ids an index happens to use depends on its history, so equality
//! is *logical*: two indexes are equal when they map the same terms to
//! the same entries with the same frequencies, and `Debug` prints that
//! term → entry → frequency view.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

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

/// `(id, tf)` pairs sorted by id: a term's postings (ids are docs) or a
/// doc's forward list (ids are terms).
type Pairs = Vec<(u32, u32)>;

/// One term id's slot. A free slot has empty text and no postings.
#[derive(Clone, Default)]
struct Term {
    text: Box<str>,
    postings: Pairs,
}

/// One doc id's slot. A free slot keeps its last entry's id but has an
/// empty forward list, and no posting refers to it.
#[derive(Clone)]
struct Doc {
    id: EntryId,
    terms: Pairs,
}

/// An inverted index over the latest versions of all entries, plus the
/// forward index (entry → term frequencies) that makes exact incremental
/// removal possible. See the module docs for the layout.
#[derive(Clone, Default)]
pub struct SearchIndex {
    /// Term text → term id, for live terms only. Terms come from entry
    /// text, so the map keeps std's keyed hasher: no author can craft
    /// terms that collide.
    vocab: HashMap<Box<str>, u32>,
    /// Term id → text and postings.
    terms: Vec<Term>,
    /// Term ids whose slot is free, for reuse.
    free_terms: Vec<u32>,
    /// Doc → entry and its forward list.
    docs: Vec<Doc>,
    /// Docs whose slot is free, for reuse.
    free_docs: Vec<u32>,
    /// Entry → doc, for indexed entries only.
    doc_of: BTreeMap<EntryId, u32>,
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

/// Insert `(id, tf)` into `pairs`, keeping it sorted by id; a push when
/// `id` sorts last, as every insert of a build does.
fn insert_sorted(pairs: &mut Pairs, id: u32, tf: u32) {
    match pairs.last() {
        Some(&(last, _)) if last > id => {
            let at = pairs.partition_point(|&(other, _)| other < id);
            pairs.insert(at, (id, tf));
        }
        _ => pairs.push((id, tf)),
    }
}

/// Store `value` in a free slot of `slots` if there is one, else in a
/// new slot; returns the slot's index.
fn occupy<T>(slots: &mut Vec<T>, free: &mut Vec<u32>, value: T) -> u32 {
    match free.pop() {
        Some(at) => {
            slots[at as usize] = value;
            at
        }
        None => {
            slots.push(value);
            u32::try_from(slots.len() - 1).expect("fewer than 2^32 live slots")
        }
    }
}

impl SearchIndex {
    /// Build from a repository snapshot (latest versions only).
    pub fn build(snapshot: &RepositorySnapshot) -> SearchIndex {
        let mut idx = SearchIndex::default();
        idx.docs.reserve(snapshot.records.len());
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
    /// event stream — the per-source re-base path of
    /// [`crate::replica::Federation`], which after a primary checkpoint
    /// has a target *snapshot* but no events for the gap. Equivalent to
    /// applying a revise event carrying `entry`.
    pub fn upsert_entry(&mut self, id: &EntryId, entry: &ExampleEntry) {
        self.upsert(id, entry);
    }

    /// Retract one entry entirely (no-op if it was never indexed) — the
    /// counterpart of [`SearchIndex::upsert_entry`] for entries a re-base
    /// target no longer contains.
    pub fn remove_entry(&mut self, id: &EntryId) {
        self.remove(id);
    }

    /// Replace (or first-index) one entry's postings.
    fn upsert(&mut self, id: &EntryId, entry: &ExampleEntry) {
        // Retract first: a term only this entry used leaves the
        // vocabulary here and is re-interned below, never held stale.
        self.remove(id);
        let terms = self.term_frequencies(entry);
        let doc = occupy(
            &mut self.docs,
            &mut self.free_docs,
            Doc {
                id: id.clone(),
                terms,
            },
        );
        for &(term, tf) in &self.docs[doc as usize].terms {
            insert_sorted(&mut self.terms[term as usize].postings, doc, tf);
        }
        self.doc_of.insert(id.clone(), doc);
    }

    /// Retract one entry's postings (no-op if it was never indexed).
    fn remove(&mut self, id: &EntryId) {
        let Some(doc) = self.doc_of.remove(id) else {
            return;
        };
        for (term, _) in std::mem::take(&mut self.docs[doc as usize].terms) {
            let slot = &mut self.terms[term as usize];
            let at = slot.postings.partition_point(|&(other, _)| other < doc);
            slot.postings.remove(at);
            if slot.postings.is_empty() {
                self.vocab.remove(&slot.text);
                slot.text = Box::default();
                self.free_terms.push(term);
            }
        }
        self.free_docs.push(doc);
    }

    /// The term id of `token`, interning it if it is new.
    fn intern(&mut self, token: &str) -> u32 {
        if let Some(&term) = self.vocab.get(token) {
            return term;
        }
        let slot = Term {
            text: token.into(),
            postings: Vec::new(),
        };
        let term = occupy(&mut self.terms, &mut self.free_terms, slot);
        self.vocab.insert(token.into(), term);
        term
    }

    /// `entry`'s terms with their frequencies, sorted by term id. Tokens
    /// are the lowercase alphanumeric runs of length ≥ 2; lowercasing the
    /// whole text first gives the same tokens as lowercasing each one,
    /// since the split is on ASCII.
    fn term_frequencies(&mut self, entry: &ExampleEntry) -> Pairs {
        ENTRIES_TOKENIZED.with(|c| c.set(c.get() + 1));
        let mut text = entry_text(entry);
        text.make_ascii_lowercase();
        // Each token is at least 2 bytes and `entry_text` ends every part
        // with a separator, so there are at most `len / 3` tokens.
        let mut ids: Vec<u32> = Vec::with_capacity(text.len() / 3);
        ids.extend(
            text.split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|t| t.len() >= 2)
                .map(|token| self.intern(token)),
        );
        ids.sort_unstable();
        let mut terms: Pairs = Vec::new();
        for term in ids {
            match terms.last_mut() {
                Some((last, tf)) if *last == term => *tf += 1,
                _ => terms.push((term, 1)),
            }
        }
        terms
    }

    /// Number of distinct indexed terms.
    pub fn term_count(&self) -> usize {
        self.vocab.len()
    }

    /// Number of indexed entries.
    pub fn entry_count(&self) -> usize {
        self.doc_of.len()
    }

    /// Conjunctive keyword query: entries containing *all* terms, scored
    /// by summed term frequency, sorted by descending score then id.
    ///
    /// Intersects the borrowed posting lists (driven from the smallest
    /// one); only the result ids are cloned.
    pub fn query(&self, terms: &[&str]) -> Vec<(EntryId, u32)> {
        self.query_filtered(terms, |_| true)
    }

    /// [`SearchIndex::query`] restricted to entries `keep` accepts — the
    /// serving path for scoped search (e.g. a [`crate::replica::Federation`]
    /// restricting hits to one source's namespace) without materializing
    /// a per-scope index. The filter runs once on each candidate id
    /// *before* the full conjunction is scored, so rejected entries cost
    /// one check.
    pub fn query_filtered(
        &self,
        terms: &[&str],
        keep: impl Fn(&EntryId) -> bool,
    ) -> Vec<(EntryId, u32)> {
        if terms.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&[(u32, u32)]> = Vec::with_capacity(terms.len());
        for term in terms {
            match self.vocab.get(fold_term(term).as_ref()) {
                Some(&term) => lists.push(&self.terms[term as usize].postings),
                // One absent term empties the conjunction.
                None => return Vec::new(),
            }
        }
        lists.sort_by_key(|p| p.len());
        let (smallest, rest) = lists.split_first_mut().expect("terms is non-empty");
        let mut out: Vec<(EntryId, u32)> = Vec::new();
        // Candidates come in doc order, so each other list is a cursor
        // that only moves forward.
        'candidates: for &(doc, tf) in *smallest {
            let id = &self.docs[doc as usize].id;
            if !keep(id) {
                continue;
            }
            let mut score = tf;
            for list in rest.iter_mut() {
                *list = &list[list.partition_point(|&(other, _)| other < doc)..];
                match list.first() {
                    Some(&(other, tf)) if other == doc => score += tf,
                    _ => continue 'candidates,
                }
            }
            out.push((id.clone(), score));
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// One doc's forward list by term text, sorted: the id-free form
    /// equality compares.
    fn terms_by_text(&self, doc: u32) -> Vec<(&str, u32)> {
        let mut terms: Vec<(&str, u32)> = self.docs[doc as usize]
            .terms
            .iter()
            .map(|&(term, tf)| (&*self.terms[term as usize].text, tf))
            .collect();
        terms.sort_unstable();
        terms
    }
}

/// Logical equality: the same entries with the same term frequencies,
/// whatever term and doc ids each index assigned. Every posting mirrors
/// a forward-list pair, so equal forward lists mean equal postings.
impl PartialEq for SearchIndex {
    fn eq(&self, other: &SearchIndex) -> bool {
        self.doc_of.len() == other.doc_of.len()
            && self.vocab.len() == other.vocab.len()
            && self
                .doc_of
                .iter()
                .zip(&other.doc_of)
                .all(|((a, &da), (b, &db))| {
                    a == b && self.terms_by_text(da) == other.terms_by_text(db)
                })
    }
}

impl Eq for SearchIndex {}

/// The logical view equality compares: term → (entry → term frequency).
impl fmt::Debug for SearchIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let postings: BTreeMap<&str, BTreeMap<&EntryId, u32>> = self
            .vocab
            .iter()
            .map(|(text, &term)| {
                let posting = self.terms[term as usize]
                    .postings
                    .iter()
                    .map(|&(doc, tf)| (&self.docs[doc as usize].id, tf))
                    .collect();
                (&**text, posting)
            })
            .collect();
        f.debug_struct("SearchIndex")
            .field("postings", &postings)
            .finish()
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
    fn rewrites_reuse_term_and_doc_ids() {
        let r = repository();
        let mut idx = SearchIndex::build(&r.snapshot());
        let id = EntryId::from_title("COMPOSERS");
        let mut entry = r.latest(&id).unwrap();
        let slots = idx.terms.len();
        for round in 0..50 {
            // Each round's word is new and replaces the last one, which
            // then has no posting left and frees its id for the next.
            entry.discussion = format!("word{round}");
            idx.upsert_entry(&id, &entry);
            assert_eq!(idx.terms.len(), slots, "round {round} grew the term slots");
        }
        assert_eq!(idx.query(&["word49"]).len(), 1);
        assert!(idx.query(&["word48"]).is_empty());
        assert_eq!(idx.docs.len(), 2, "re-indexing an entry reuses its doc");
        r.revise("a", &id, entry).unwrap();
        assert_eq!(idx, SearchIndex::build(&r.snapshot()));
        idx.remove_entry(&id);
        idx.remove_entry(&EntryId::from_title("UML2RDBMS"));
        assert_eq!((idx.term_count(), idx.entry_count()), (0, 0));
        assert!(idx.vocab.is_empty() && idx.doc_of.is_empty());
        assert_eq!(idx, SearchIndex::default());
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
