//! The pure checkers: everything the engine knows how to verify about
//! one entry against one snapshot. `check_entry` is deterministic in
//! `(snapshot, id, record, catalog)` — the incremental engine and the
//! cold full check call exactly the same function, which is what makes
//! the incremental-≡-full property meaningful.

use bx_core::cite;
use bx_core::curation::EntryStatus;
use bx_core::principal::{Principal, Role};
use bx_core::repo::{EntryId, EntryRecord, RepositorySnapshot};
use bx_core::template::ArtefactKind;
use bx_core::version::Version;
use bx_core::RepoError;
use bx_theory::laws::ClaimVerdict;

use crate::catalog::CheckCatalog;
use crate::diagnostics::{Diagnostic, DiagnosticsIndex, LintLaw, Severity};

/// A cross-entry reference: `entry:<slug>` or `entry:<slug>@<maj>.<min>`
/// in a reference's citation field.
fn parse_entry_ref(citation: &str) -> Option<(&str, Result<Option<Version>, String>)> {
    let rest = citation.strip_prefix("entry:")?;
    match rest.split_once('@') {
        None => Some((rest, Ok(None))),
        Some((slug, version)) => {
            let parsed = version
                .split_once('.')
                .and_then(|(major, minor)| {
                    Some(Version::new(major.parse().ok()?, minor.parse().ok()?))
                })
                .ok_or_else(|| format!("unparseable version pin `@{version}` (want `@maj.min`)"));
            Some((slug, parsed.map(Some)))
        }
    }
}

/// Find `name`'s account, tolerating federation namespacing: an exact
/// key, or any `<source>/<name>` key (entries written on a primary list
/// reviewers by their local names; the merged snapshot stores the
/// accounts namespaced).
fn lookup_account<'a>(snapshot: &'a RepositorySnapshot, name: &str) -> Option<&'a Principal> {
    if let Some(principal) = snapshot.accounts.get(name) {
        return Some(principal);
    }
    let suffix = format!("/{name}");
    snapshot
        .accounts
        .iter()
        .find(|(key, _)| key.ends_with(&suffix))
        .map(|(_, principal)| principal)
}

/// Resolve one `entry:` reference against the snapshot, trying the
/// referencing entry's own source namespace when the plain slug misses
/// (an entry written on primary `eu` that cites `entry:composers` means
/// `eu/composers` once federated).
fn resolve_reference(
    snapshot: &RepositorySnapshot,
    referencer: &EntryId,
    slug: &str,
    version: Option<Version>,
) -> Result<String, RepoError> {
    match cite::cite_in(snapshot, &EntryId(slug.to_string()), version) {
        Err(RepoError::UnknownEntry(_)) => {
            if let Some((source, _)) = referencer.as_str().split_once('/') {
                cite::cite_in(snapshot, &EntryId(format!("{source}/{slug}")), version)
            } else {
                Err(RepoError::UnknownEntry(slug.to_string()))
            }
        }
        other => other,
    }
}

/// Every law check for one entry, in catalogue order: template
/// well-formedness, citation integrity, curation invariants, claim
/// verification, lens round-trips. Pure in its inputs.
pub fn check_entry(
    snapshot: &RepositorySnapshot,
    id: &EntryId,
    record: &EntryRecord,
    catalog: &CheckCatalog,
) -> Vec<Diagnostic> {
    let entry = record.latest();
    let mut diagnostics = Vec::new();
    let mut push = |law, severity, span: String, message: String| {
        diagnostics.push(Diagnostic {
            law,
            severity,
            span,
            message,
        });
    };

    // 1. Template well-formedness (§3 side conditions).
    for problem in entry.validate() {
        push(
            LintLaw::TemplateWellFormed,
            Severity::Error,
            "template".to_string(),
            problem,
        );
    }

    // 2. Citation / cross-entry reference integrity.
    for (i, reference) in entry.references.iter().enumerate() {
        let Some((slug, version)) = parse_entry_ref(&reference.citation) else {
            continue; // free-text literature citations are not checkable
        };
        let span = format!("references[{i}]");
        match version {
            Err(problem) => push(LintLaw::CitationResolves, Severity::Error, span, problem),
            Ok(version) => {
                if let Err(e) = resolve_reference(snapshot, id, slug, version) {
                    push(
                        LintLaw::CitationResolves,
                        Severity::Error,
                        span,
                        e.to_string(),
                    );
                }
            }
        }
    }

    // 3. Curation-role invariants (§5.1).
    if record.status == EntryStatus::Approved && !entry.version.is_reviewed() {
        push(
            LintLaw::CurationInvariant,
            Severity::Error,
            "version".to_string(),
            format!(
                "approved entries carry a reviewed version (≥ 1.0), found {}",
                entry.version
            ),
        );
    }
    for (i, reviewer) in entry.reviewers.iter().enumerate() {
        let span = format!("reviewers[{i}]");
        if entry.authors.contains(reviewer) {
            push(
                LintLaw::CurationInvariant,
                Severity::Error,
                span.clone(),
                format!("`{reviewer}` cannot review an entry they authored"),
            );
        }
        match lookup_account(snapshot, reviewer) {
            Some(principal) if !principal.role.at_least(Role::Reviewer) => push(
                LintLaw::CurationInvariant,
                Severity::Error,
                span,
                format!(
                    "`{reviewer}` is listed as reviewer but holds only the {:?} role",
                    principal.role
                ),
            ),
            Some(_) => {}
            None => push(
                LintLaw::CurationInvariant,
                Severity::Warning,
                span,
                format!("reviewer `{reviewer}` has no registered account"),
            ),
        }
    }

    // 4 & 5. Executable artefacts: claim verification against the
    // registered law matrix, and lens round-trip laws.
    for (i, artefact) in entry.artefacts.iter().enumerate() {
        if artefact.kind != ArtefactKind::Code {
            continue;
        }
        if let Some(matrix_of) = catalog.matrix(&artefact.location) {
            let matrix = matrix_of();
            for verdict in matrix.verify_claims(&entry.properties) {
                match verdict {
                    ClaimVerdict::Confirmed(_) => {}
                    ClaimVerdict::Refuted { claim, evidence } => push(
                        LintLaw::ClaimVerified,
                        Severity::Error,
                        "properties".to_string(),
                        format!(
                            "claim `{claim}` refuted by `{}`: {evidence}",
                            matrix.bx_name
                        ),
                    ),
                    ClaimVerdict::Unverifiable(claim) => push(
                        LintLaw::ClaimVerified,
                        Severity::Info,
                        "properties".to_string(),
                        format!(
                            "claim `{claim}` is declared-only (no law in `{}` backs it)",
                            matrix.bx_name
                        ),
                    ),
                }
            }
        }
        if let Some(lens_check) = catalog.lens_check(&artefact.location) {
            for report in lens_check() {
                if !report.holds() {
                    push(
                        LintLaw::LensRoundTrip(report.law),
                        Severity::Error,
                        format!("artefacts[{i}]"),
                        report.to_string(),
                    );
                }
            }
        }
    }

    diagnostics
}

/// The cold path: check every entry of `snapshot` from scratch. This is
/// what `bx lint` runs, and the oracle the incremental engine is pinned
/// against.
pub fn full_check(snapshot: &RepositorySnapshot, catalog: &CheckCatalog) -> DiagnosticsIndex {
    let mut index = DiagnosticsIndex::default();
    for (id, record) in &snapshot.records {
        index.set_entry(id, check_entry(snapshot, id, record, catalog));
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_core::repo::Repository;
    use bx_core::template::{ExampleEntry, ExampleType, Reference};

    fn entry(title: &str) -> ExampleEntry {
        ExampleEntry::builder(title)
            .of_type(ExampleType::Precise)
            .overview("O.")
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .discussion("D.")
            .author("alice")
            .build()
            .unwrap()
    }

    fn repo_with(entries: Vec<ExampleEntry>) -> RepositorySnapshot {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        for e in entries {
            r.contribute("alice", e).unwrap();
        }
        r.snapshot()
    }

    #[test]
    fn a_valid_entry_is_clean() {
        let snapshot = repo_with(vec![entry("COMPOSERS")]);
        let id = EntryId::from_title("COMPOSERS");
        let diagnostics = check_entry(&snapshot, &id, &snapshot.records[&id], &CheckCatalog::new());
        assert!(diagnostics.is_empty(), "unexpected: {diagnostics:?}");
    }

    #[test]
    fn template_violations_surface_as_errors() {
        // `contribute` refuses invalid entries, so build one unchecked —
        // the path a foreign event log takes into a replica.
        let bad = ExampleEntry::builder("BROKEN")
            .of_type(ExampleType::Precise)
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .discussion("D.")
            .author("alice")
            .build_unchecked();
        let mut snapshot = repo_with(vec![]);
        snapshot.records.insert(
            EntryId::from_title("BROKEN"),
            EntryRecord {
                status: EntryStatus::Provisional,
                history: vec![bad],
            },
        );
        let id = EntryId::from_title("BROKEN");
        let diagnostics = check_entry(&snapshot, &id, &snapshot.records[&id], &CheckCatalog::new());
        assert!(diagnostics
            .iter()
            .any(|d| d.law == LintLaw::TemplateWellFormed && d.severity == Severity::Error));
    }

    #[test]
    fn entry_references_resolve_or_error() {
        let mut referencing = entry("DATES");
        referencing.references = vec![
            Reference {
                citation: "entry:composers".to_string(),
                doi: None,
            },
            Reference {
                citation: "entry:ghost".to_string(),
                doi: None,
            },
            Reference {
                citation: "entry:composers@9.9".to_string(),
                doi: None,
            },
            Reference {
                citation: "entry:composers@nonsense".to_string(),
                doi: None,
            },
            Reference {
                citation: "Free-text literature citation, 2014.".to_string(),
                doi: None,
            },
        ];
        let snapshot = repo_with(vec![entry("COMPOSERS"), referencing]);
        let id = EntryId::from_title("DATES");
        let diagnostics = check_entry(&snapshot, &id, &snapshot.records[&id], &CheckCatalog::new());
        let citation_errors: Vec<&Diagnostic> = diagnostics
            .iter()
            .filter(|d| d.law == LintLaw::CitationResolves)
            .collect();
        assert_eq!(citation_errors.len(), 3, "got: {diagnostics:?}");
        assert_eq!(citation_errors[0].span, "references[1]"); // ghost
        assert_eq!(citation_errors[1].span, "references[2]"); // bad pin
        assert_eq!(citation_errors[2].span, "references[3]"); // unparseable
    }

    #[test]
    fn references_resolve_within_a_federated_namespace() {
        let mut referencing = entry("DATES");
        referencing.references = vec![Reference {
            citation: "entry:composers".to_string(),
            doi: None,
        }];
        let plain = repo_with(vec![entry("COMPOSERS"), referencing]);
        // Re-key everything under a source namespace, as a federation
        // would: `entry:composers` inside `eu/dates` must find
        // `eu/composers`.
        let mut federated = RepositorySnapshot::empty("fed");
        for (id, record) in &plain.records {
            federated
                .records
                .insert(EntryId(format!("eu/{}", id.as_str())), record.clone());
        }
        let id = EntryId("eu/dates".to_string());
        let diagnostics = check_entry(
            &federated,
            &id,
            &federated.records[&id],
            &CheckCatalog::new(),
        );
        assert!(
            !diagnostics
                .iter()
                .any(|d| d.law == LintLaw::CitationResolves),
            "namespaced resolution failed: {diagnostics:?}"
        );
    }

    #[test]
    fn curation_invariants_catch_self_review_and_missing_roles() {
        let mut reviewed = entry("UML2RDBMS");
        reviewed.reviewers = vec![
            "alice".to_string(),
            "carol".to_string(),
            "mallory".to_string(),
        ];
        let mut snapshot = repo_with(vec![]);
        snapshot
            .accounts
            .insert("carol".to_string(), Principal::member("carol"));
        snapshot.records.insert(
            EntryId::from_title("UML2RDBMS"),
            EntryRecord {
                status: EntryStatus::Provisional,
                history: vec![reviewed],
            },
        );
        let id = EntryId::from_title("UML2RDBMS");
        let diagnostics = check_entry(&snapshot, &id, &snapshot.records[&id], &CheckCatalog::new());
        // alice authored the entry → self-review error (plus a warning:
        // alice is registered but validate() also requires reviewers on
        // reviewed versions only, so no template error here).
        assert!(diagnostics
            .iter()
            .any(|d| d.law == LintLaw::CurationInvariant
                && d.severity == Severity::Error
                && d.message.contains("they authored")));
        // carol holds only Member → role error.
        assert!(diagnostics
            .iter()
            .any(|d| d.law == LintLaw::CurationInvariant
                && d.severity == Severity::Error
                && d.message.contains("holds only the Member role")));
        // mallory has no account → warning.
        assert!(diagnostics
            .iter()
            .any(|d| d.law == LintLaw::CurationInvariant
                && d.severity == Severity::Warning
                && d.message.contains("no registered account")));
    }

    #[test]
    fn approved_entries_need_reviewed_versions() {
        let snapshot = repo_with(vec![entry("FAMILIES")]);
        let id = EntryId::from_title("FAMILIES");
        let mut tampered = snapshot.clone();
        tampered.records.get_mut(&id).unwrap().status = EntryStatus::Approved;
        let diagnostics = check_entry(&tampered, &id, &tampered.records[&id], &CheckCatalog::new());
        assert!(diagnostics
            .iter()
            .any(|d| d.law == LintLaw::CurationInvariant
                && d.span == "version"
                && d.severity == Severity::Error));
    }

    #[test]
    fn full_check_over_the_standard_repository_is_error_free() {
        let repo = bx_examples::standard_repository();
        let catalog = crate::catalog::standard_catalog();
        let index = full_check(&repo.snapshot(), &catalog);
        assert!(
            index.is_clean(),
            "the shipped corpus must lint clean:\n{}",
            index.report()
        );
        // The checks did run: COMPOSERS carries a declared-only claim
        // (SimplyMatching), surfaced as an info diagnostic.
        let composers = EntryId::from_title("COMPOSERS");
        assert!(index
            .diagnostics_of(&composers)
            .iter()
            .any(|d| d.law == LintLaw::ClaimVerified && d.severity == Severity::Info));
    }
}
