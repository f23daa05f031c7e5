//! The dependency map: which entries' diagnostics an event can change.
//!
//! `check_entry` reads outside its own entry in exactly two places —
//! `entry:` references (resolved against the live records) and reviewer
//! names (resolved against the live accounts). [`DepMap`] maintains the
//! reverse of both reads, so on each event the engine re-checks the
//! touched entry **plus** precisely the entries whose external reads
//! that event could have changed, and nothing else. That inversion is
//! the whole O(change) claim: without it, a `RoleGranted` event would
//! force a full sweep to find the three entries naming that reviewer.

use std::collections::{BTreeMap, BTreeSet};

use bx_core::event::RepoEvent;
use bx_core::repo::{EntryId, EntryRecord, RepositorySnapshot};

/// Reverse dependencies of the lint checks; see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DepMap {
    /// entry → the target ids its `entry:` references may resolve to
    /// (both the plain slug and, for namespaced referencers, the
    /// source-local candidate). Dangling targets are kept: the entry
    /// must be re-checked when the target first appears.
    refs_out: BTreeMap<EntryId, BTreeSet<EntryId>>,
    /// target id → entries referencing it (the inversion of `refs_out`).
    refs_in: BTreeMap<EntryId, BTreeSet<EntryId>>,
    /// entry → the reviewer names it lists.
    reviewers_out: BTreeMap<EntryId, BTreeSet<String>>,
    /// reviewer name → entries listing it.
    reviewers_in: BTreeMap<String, BTreeSet<EntryId>>,
}

/// The `entry:` reference targets of one record's latest version,
/// mirroring `check_entry`'s resolution candidates.
fn ref_targets(id: &EntryId, record: &EntryRecord) -> BTreeSet<EntryId> {
    let mut targets = BTreeSet::new();
    for reference in &record.latest().references {
        let Some(rest) = reference.citation.strip_prefix("entry:") else {
            continue;
        };
        let slug = rest.split_once('@').map(|(s, _)| s).unwrap_or(rest);
        targets.insert(EntryId(slug.to_string()));
        if let Some((source, _)) = id.as_str().split_once('/') {
            targets.insert(EntryId(format!("{source}/{slug}")));
        }
    }
    targets
}

impl DepMap {
    /// Build the map for a whole snapshot.
    pub(crate) fn build(snapshot: &RepositorySnapshot) -> DepMap {
        let mut map = DepMap::default();
        for (id, record) in &snapshot.records {
            map.update_entry(id, Some(record));
        }
        map
    }

    /// Re-derive one entry's outgoing edges (`None` removes the entry).
    pub(crate) fn update_entry(&mut self, id: &EntryId, record: Option<&EntryRecord>) {
        // Retract the old edges.
        if let Some(old_targets) = self.refs_out.remove(id) {
            for target in old_targets {
                if let Some(referencers) = self.refs_in.get_mut(&target) {
                    referencers.remove(id);
                    if referencers.is_empty() {
                        self.refs_in.remove(&target);
                    }
                }
            }
        }
        if let Some(old_reviewers) = self.reviewers_out.remove(id) {
            for reviewer in old_reviewers {
                if let Some(entries) = self.reviewers_in.get_mut(&reviewer) {
                    entries.remove(id);
                    if entries.is_empty() {
                        self.reviewers_in.remove(&reviewer);
                    }
                }
            }
        }
        // Insert the new ones.
        let Some(record) = record else { return };
        let targets = ref_targets(id, record);
        for target in &targets {
            self.refs_in
                .entry(target.clone())
                .or_default()
                .insert(id.clone());
        }
        if !targets.is_empty() {
            self.refs_out.insert(id.clone(), targets);
        }
        let reviewers: BTreeSet<String> = record.latest().reviewers.iter().cloned().collect();
        for reviewer in &reviewers {
            self.reviewers_in
                .entry(reviewer.clone())
                .or_default()
                .insert(id.clone());
        }
        if !reviewers.is_empty() {
            self.reviewers_out.insert(id.clone(), reviewers);
        }
    }

    /// Entries whose reviewer checks read `account` — matched both by
    /// the full (possibly namespaced) account name and by its base name,
    /// mirroring `check_entry`'s tolerant lookup.
    fn entries_reviewing(&self, account: &str) -> BTreeSet<EntryId> {
        let mut affected = BTreeSet::new();
        if let Some(entries) = self.reviewers_in.get(account) {
            affected.extend(entries.iter().cloned());
        }
        if let Some(base) = account.rsplit('/').next() {
            if base != account {
                if let Some(entries) = self.reviewers_in.get(base) {
                    affected.extend(entries.iter().cloned());
                }
            }
        }
        affected
    }

    /// The entries whose `entry:` references may resolve to `target`,
    /// so whose diagnostics change when its record does.
    pub(crate) fn referencers(&self, target: &EntryId) -> impl Iterator<Item = &EntryId> {
        self.refs_in.get(target).into_iter().flatten()
    }

    /// The entries whose diagnostics `event` can change: the touched
    /// entry plus its reverse dependencies. Computed against the map's
    /// *current* edges, so the engine consults it both before and after
    /// folding the event in.
    pub(crate) fn affected(&self, event: &RepoEvent) -> BTreeSet<EntryId> {
        match event {
            RepoEvent::Founded(f) => f
                .curators
                .iter()
                .flat_map(|c| self.entries_reviewing(&c.name))
                .collect(),
            RepoEvent::Registered(r) => self.entries_reviewing(&r.principal.name),
            RepoEvent::RoleGranted(g) => self.entries_reviewing(&g.account),
            other => {
                let mut affected = BTreeSet::new();
                if let Some(id) = other.touched() {
                    affected.insert(id.clone());
                    affected.extend(self.referencers(id).cloned());
                }
                affected
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_core::curation::EntryStatus;
    use bx_core::event::{EntryDelta, RoleGranted};
    use bx_core::principal::Role;
    use bx_core::template::{ExampleEntry, ExampleType, Reference};

    fn entry_with(title: &str, refs: &[&str], reviewers: &[&str]) -> ExampleEntry {
        let mut entry = ExampleEntry::builder(title)
            .of_type(ExampleType::Precise)
            .overview("O.")
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .discussion("D.")
            .author("alice")
            .build_unchecked();
        entry.references = refs
            .iter()
            .map(|r| Reference {
                citation: format!("entry:{r}"),
                doi: None,
            })
            .collect();
        entry.reviewers = reviewers.iter().map(|r| r.to_string()).collect();
        entry
    }

    fn record(entry: ExampleEntry) -> EntryRecord {
        EntryRecord {
            status: EntryStatus::Provisional,
            history: vec![entry],
        }
    }

    #[test]
    fn reference_edges_invert_and_retract() {
        let mut snapshot = RepositorySnapshot::empty("bx");
        let dates = EntryId::from_title("DATES");
        snapshot.records.insert(
            dates.clone(),
            record(entry_with("DATES", &["composers"], &[])),
        );
        let deps = DepMap::build(&snapshot);

        // An event touching `composers` re-checks composers AND dates.
        let touch = RepoEvent::Contributed(EntryDelta {
            id: EntryId::from_title("COMPOSERS"),
            entry: entry_with("COMPOSERS", &[], &[]),
        });
        let affected = deps.affected(&touch);
        assert!(affected.contains(&EntryId::from_title("COMPOSERS")));
        assert!(affected.contains(&dates), "the referencer is affected");

        // Dropping the reference retracts the reverse edge.
        let mut deps = deps;
        deps.update_entry(&dates, Some(&record(entry_with("DATES", &[], &[]))));
        assert!(!deps.affected(&touch).contains(&dates));
        assert_eq!(deps, {
            let mut empty = RepositorySnapshot::empty("bx");
            empty
                .records
                .insert(dates.clone(), record(entry_with("DATES", &[], &[])));
            DepMap::build(&empty)
        });
    }

    #[test]
    fn role_events_reach_the_entries_naming_the_reviewer() {
        let mut snapshot = RepositorySnapshot::empty("bx");
        let id = EntryId::from_title("DATES");
        snapshot
            .records
            .insert(id.clone(), record(entry_with("DATES", &[], &["bob"])));
        let deps = DepMap::build(&snapshot);

        let grant = RepoEvent::RoleGranted(RoleGranted {
            account: "bob".to_string(),
            role: Role::Reviewer,
        });
        assert!(deps.affected(&grant).contains(&id));

        // The namespaced (federated) form of the same grant also lands.
        let namespaced = RepoEvent::RoleGranted(RoleGranted {
            account: "eu/bob".to_string(),
            role: Role::Reviewer,
        });
        assert!(deps.affected(&namespaced).contains(&id));

        // An unrelated account touches nothing.
        let other = RepoEvent::RoleGranted(RoleGranted {
            account: "carol".to_string(),
            role: Role::Reviewer,
        });
        assert!(deps.affected(&other).is_empty());
    }

    #[test]
    fn namespaced_referencers_track_both_candidates() {
        let mut snapshot = RepositorySnapshot::empty("fed");
        let id = EntryId("eu/dates".to_string());
        snapshot
            .records
            .insert(id.clone(), record(entry_with("DATES", &["composers"], &[])));
        let deps = DepMap::build(&snapshot);
        // The federated target id re-checks the referencer too.
        let touch = RepoEvent::Contributed(EntryDelta {
            id: EntryId("eu/composers".to_string()),
            entry: entry_with("COMPOSERS", &[], &[]),
        });
        assert!(deps.affected(&touch).contains(&id));
    }
}
