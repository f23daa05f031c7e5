//! §5.4, dogfooded: "maintaining it in a wiki-markup-independent form, and
//! maintaining consistency between that and the wiki via a bidirectional
//! transformation, might add value." This module *is* that bx.
//!
//! The transformation relates a [`RepositorySnapshot`] (the structured,
//! markup-independent form) and a [`WikiSite`] (pages of markup):
//!
//! * **Consistency**: every entry's latest version renders exactly to the
//!   current content of its `examples:<slug>` page, and there are no
//!   orphan example pages.
//! * **Forward** (repository authoritative): render every entry onto the
//!   site (revision-preserving — unchanged pages are untouched), delete
//!   orphan example pages.
//! * **Backward** (wiki authoritative): parse every example page; entries
//!   whose page is unchanged keep their whole record (status, history)
//!   untouched; changed pages append a new version; orphan entries are
//!   removed; unparseable pages are left out (and reported by
//!   [`WikiBx::try_bwd`]).

use bx_theory::Bx;

use crate::curation::EntryStatus;
use crate::error::RepoError;
use crate::repo::{EntryId, EntryRecord, RepositorySnapshot};
use crate::wiki::{parse_entry, render_entry, WikiSite};

/// The repository↔wiki bidirectional transformation.
#[derive(Debug, Clone, Default)]
pub struct WikiBx;

impl WikiBx {
    /// Construct the transformation.
    pub fn new() -> WikiBx {
        WikiBx
    }

    /// Backward restoration that also reports pages that failed to parse
    /// (the total [`Bx::bwd`] silently keeps the old record for those).
    pub fn try_bwd(
        &self,
        snapshot: &RepositorySnapshot,
        site: &WikiSite,
    ) -> (RepositorySnapshot, Vec<RepoError>) {
        let mut out = RepositorySnapshot {
            name: snapshot.name.clone(),
            records: Default::default(),
            accounts: snapshot.accounts.clone(),
        };
        let mut errors = Vec::new();

        for page in site.example_pages() {
            let Some(content) = site.current(page) else {
                continue;
            };
            let slug = page.trim_start_matches("examples:").to_string();
            let id = EntryId(slug);
            let old = snapshot.records.get(&id);

            // Unchanged page: keep the record verbatim (hippocraticness).
            if let Some(record) = old {
                if render_entry(record.latest()) == content {
                    out.records.insert(id, record.clone());
                    continue;
                }
            }

            match parse_entry(page, content) {
                Ok(parsed) => {
                    let record = match old {
                        Some(record) => {
                            let mut record = record.clone();
                            record.history.push(parsed);
                            record.status = EntryStatus::Provisional;
                            record
                        }
                        None => EntryRecord {
                            status: EntryStatus::Provisional,
                            history: vec![parsed],
                        },
                    };
                    out.records.insert(id, record);
                }
                Err(e) => {
                    errors.push(e);
                    // Keep the old record if we had one; a broken page
                    // should not destroy repository content.
                    if let Some(record) = old {
                        out.records.insert(id, record.clone());
                    }
                }
            }
        }
        (out, errors)
    }
}

impl WikiBx {
    /// Dirty-tracked forward sync: bring only the pages of `dirty` entries
    /// up to date, in place. Entries present in the snapshot are
    /// re-rendered; dirty ids absent from the snapshot have their pages
    /// deleted. Untouched pages are never re-rendered (or even looked at).
    ///
    /// When `dirty` covers every entry whose record changed since `site`
    /// was last consistent with the repository, the result equals the
    /// total [`Bx::fwd`] — the dirty set is exactly what
    /// [`crate::event::dirty_set`] extracts from the event stream
    /// ([`crate::repo::Repository::drain_events`], or the per-event
    /// pushes a [`crate::event::EventSink`] receives — this is how a
    /// [`crate::replica::Federation`] keeps its wiki converging with its
    /// primaries'). The total `fwd`/`bwd` remain the law-checked
    /// semantics; this is the scaling fast path.
    pub fn sync_changed(
        &self,
        snapshot: &RepositorySnapshot,
        site: &mut WikiSite,
        dirty: &std::collections::BTreeSet<EntryId>,
    ) {
        for id in dirty {
            match snapshot.records.get(id) {
                Some(record) => site.set_page(&id.page_name(), render_entry(record.latest())),
                None => {
                    site.delete_page(&id.page_name());
                }
            }
        }
    }

    /// Full publication: forward-sync every entry page *and* regenerate
    /// the `examples:home` index and the `glossary` page. The extra pages
    /// live outside the bx's consistency relation (which governs entry
    /// pages only), so publication remains hippocratic at the entry level
    /// while keeping the navigational pages fresh.
    pub fn publish(&self, snapshot: &RepositorySnapshot, site: &WikiSite) -> WikiSite {
        let mut out = self.fwd(snapshot, site);
        let entries: Vec<&crate::template::ExampleEntry> =
            snapshot.records.values().map(|r| r.latest()).collect();
        out.set_page(
            "examples:home",
            crate::wiki::render::render_home(&snapshot.name, &entries),
        );
        out.set_page("glossary", crate::wiki::render::render_glossary());
        out
    }
}

impl Bx<RepositorySnapshot, WikiSite> for WikiBx {
    fn name(&self) -> &str {
        "repository<->wiki"
    }

    fn consistent(&self, snapshot: &RepositorySnapshot, site: &WikiSite) -> bool {
        // Every entry page matches its rendering…
        for (id, record) in &snapshot.records {
            match site.current(&id.page_name()) {
                Some(content) if content == render_entry(record.latest()) => {}
                _ => return false,
            }
        }
        // …and no orphan example pages exist.
        site.example_pages().len() == snapshot.records.len()
    }

    fn fwd(&self, snapshot: &RepositorySnapshot, site: &WikiSite) -> WikiSite {
        let mut out = site.clone();
        let live: std::collections::BTreeSet<String> =
            snapshot.records.keys().map(EntryId::page_name).collect();
        // Delete orphans (collect names first: borrow discipline).
        let orphans: Vec<String> = out
            .example_pages()
            .into_iter()
            .filter(|p| !live.contains(*p))
            .map(str::to_string)
            .collect();
        for page in orphans {
            out.delete_page(&page);
        }
        for (id, record) in &snapshot.records {
            out.set_page(&id.page_name(), render_entry(record.latest()));
        }
        out
    }

    fn bwd(&self, snapshot: &RepositorySnapshot, site: &WikiSite) -> RepositorySnapshot {
        self.try_bwd(snapshot, site).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::Principal;
    use crate::repo::Repository;
    use crate::template::{ExampleEntry, ExampleType};
    use bx_theory::{check_all_laws, Law, Samples};

    fn entry(title: &str, overview: &str) -> ExampleEntry {
        ExampleEntry::builder(title)
            .of_type(ExampleType::Precise)
            .overview(overview)
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .discussion("D.")
            .author("alice")
            .build()
            .unwrap()
    }

    fn snapshot_with(titles: &[(&str, &str)]) -> RepositorySnapshot {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        for (t, o) in titles {
            r.contribute("alice", entry(t, o)).unwrap();
        }
        r.snapshot()
    }

    #[test]
    fn fwd_publishes_all_entries() {
        let bx = WikiBx::new();
        let snap = snapshot_with(&[("COMPOSERS", "O."), ("UML2RDBMS", "O.")]);
        let site = bx.fwd(&snap, &WikiSite::new());
        assert_eq!(site.example_pages().len(), 2);
        assert!(bx.consistent(&snap, &site));
    }

    #[test]
    fn fwd_removes_orphans_and_keeps_other_pages() {
        let bx = WikiBx::new();
        let snap = snapshot_with(&[("COMPOSERS", "O.")]);
        let mut site = WikiSite::new();
        site.set_page("examples:stale", "++ STALE\njunk".to_string());
        site.set_page("start", "welcome".to_string());
        let site2 = bx.fwd(&snap, &site);
        assert!(site2.current("examples:stale").is_none());
        assert_eq!(site2.current("start"), Some("welcome"));
        assert!(bx.consistent(&snap, &site2));
    }

    #[test]
    fn fwd_is_revision_preserving_on_unchanged_pages() {
        let bx = WikiBx::new();
        let snap = snapshot_with(&[("COMPOSERS", "O.")]);
        let site = bx.fwd(&snap, &WikiSite::new());
        let site2 = bx.fwd(&snap, &site);
        assert_eq!(site, site2, "second sync is a no-op");
        assert_eq!(site2.revisions("examples:composers").len(), 1);
    }

    #[test]
    fn bwd_imports_new_pages() {
        let bx = WikiBx::new();
        let empty = snapshot_with(&[]);
        let full = snapshot_with(&[("COMPOSERS", "O.")]);
        let site = bx.fwd(&full, &WikiSite::new());
        let snap2 = bx.bwd(&empty, &site);
        assert_eq!(snap2.records.len(), 1);
        let id = EntryId("composers".to_string());
        assert_eq!(snap2.records[&id].latest().title, "COMPOSERS");
    }

    #[test]
    fn bwd_appends_version_on_changed_page() {
        let bx = WikiBx::new();
        let snap = snapshot_with(&[("COMPOSERS", "Original overview.")]);
        let mut site = bx.fwd(&snap, &WikiSite::new());
        // Edit the wiki page directly.
        let id = EntryId("composers".to_string());
        let mut edited = snap.records[&id].latest().clone();
        edited.overview = "Edited on the wiki.".to_string();
        edited.version = edited.version.next_revision();
        site.set_page(&id.page_name(), render_entry(&edited));
        let snap2 = bx.bwd(&snap, &site);
        let record = &snap2.records[&id];
        assert_eq!(record.history.len(), 2, "old version retained");
        assert_eq!(record.latest().overview, "Edited on the wiki.");
    }

    #[test]
    fn bwd_keeps_records_for_unparseable_pages() {
        let bx = WikiBx::new();
        let snap = snapshot_with(&[("COMPOSERS", "O.")]);
        let mut site = bx.fwd(&snap, &WikiSite::new());
        site.set_page("examples:composers", "vandalised!!".to_string());
        let (snap2, errors) = bx.try_bwd(&snap, &site);
        assert_eq!(errors.len(), 1);
        assert_eq!(
            snap2.records.len(),
            1,
            "vandalism does not destroy the entry"
        );
    }

    #[test]
    fn publish_adds_home_and_glossary_without_breaking_consistency() {
        let bx = WikiBx::new();
        let snap = snapshot_with(&[("COMPOSERS", "O."), ("UML2RDBMS", "O.")]);
        let site = bx.publish(&snap, &WikiSite::new());
        assert!(
            bx.consistent(&snap, &site),
            "extra pages are outside the relation"
        );
        let home = site.current("examples:home").expect("home page published");
        assert!(home.contains("[[[examples:composers]]]"));
        assert!(home.contains("[[[examples:uml2rdbms]]]"));
        assert!(site
            .current("glossary")
            .expect("glossary published")
            .contains("Hippocratic"));
        // Republishing identical content adds no revisions.
        let site2 = bx.publish(&snap, &site);
        assert_eq!(site2.revisions("examples:home").len(), 1);
        assert_eq!(site2, site);
    }

    #[test]
    fn sync_changed_matches_fwd_on_event_dirty_sets() {
        let bx = WikiBx::new();
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        for t in ["COMPOSERS", "UML2RDBMS", "DATES", "FAMILIES"] {
            r.contribute("alice", entry(t, "O.")).unwrap();
        }
        let mut site = bx.fwd(&r.snapshot(), &WikiSite::new());
        r.drain_events(); // site already reflects these

        // One revise + one comment; the comment changes the rendered page
        // too (comments are part of the markup), so both events dirty
        // their entries.
        let composers = EntryId::from_title("COMPOSERS");
        let mut edited = r.latest(&composers).unwrap();
        edited.overview = "Revised overview.".to_string();
        r.revise("alice", &composers, edited).unwrap();
        let dates = EntryId::from_title("DATES");
        r.comment("alice", &dates, "2014-04-01", "A remark.")
            .unwrap();

        let dirty = crate::event::dirty_set(&r.drain_events());
        let snap = r.snapshot();
        assert_eq!(dirty.len(), 2);

        let before = site.clone();
        let rendered_before = crate::wiki::render::entries_rendered();
        bx.sync_changed(&snap, &mut site, &dirty);
        assert_eq!(
            crate::wiki::render::entries_rendered() - rendered_before,
            2,
            "only the two dirty pages were re-rendered"
        );
        assert_eq!(site, bx.fwd(&snap, &before));
        assert!(bx.consistent(&snap, &site));
        assert_eq!(
            site.revisions("examples:composers").len(),
            2,
            "the revised page gained exactly one revision"
        );
        assert_eq!(site.revisions("examples:uml2rdbms").len(), 1);
    }

    #[test]
    fn sync_changed_deletes_pages_of_removed_entries() {
        let bx = WikiBx::new();
        let snap = snapshot_with(&[("COMPOSERS", "O."), ("UML2RDBMS", "O.")]);
        let mut site = bx.fwd(&snap, &WikiSite::new());
        let mut smaller = snap.clone();
        let gone = EntryId::from_title("UML2RDBMS");
        smaller.records.remove(&gone);
        let dirty = [gone].into_iter().collect();
        let before = site.clone();
        bx.sync_changed(&smaller, &mut site, &dirty);
        assert!(site.current("examples:uml2rdbms").is_none());
        assert_eq!(site, bx.fwd(&smaller, &before));
    }

    #[test]
    fn wiki_bx_is_correct_and_hippocratic() {
        let bx = WikiBx::new();
        let snaps = [
            snapshot_with(&[]),
            snapshot_with(&[("COMPOSERS", "O.")]),
            snapshot_with(&[("COMPOSERS", "O."), ("UML2RDBMS", "O.")]),
        ];
        // Consistent pairs plus perturbed (inconsistent) pairs.
        let mut pairs = Vec::new();
        for s in &snaps {
            pairs.push((s.clone(), bx.fwd(s, &WikiSite::new())));
        }
        pairs.push((snaps[1].clone(), WikiSite::new()));
        pairs.push((snaps[0].clone(), bx.fwd(&snaps[2], &WikiSite::new())));
        let extra_sites = vec![bx.fwd(&snaps[1], &WikiSite::new())];
        let samples = Samples::new(pairs, vec![snaps[2].clone()], extra_sites);
        let matrix = check_all_laws(&bx, &samples);
        for law in [
            Law::CorrectFwd,
            Law::CorrectBwd,
            Law::HippocraticFwd,
            Law::HippocraticBwd,
        ] {
            assert!(matrix.law_holds(law), "{}", matrix);
        }
    }
}
