//! Diagnostics: what a law check reports and the live index that holds
//! the current report per entry.

use std::collections::BTreeMap;
use std::fmt;

use bx_core::repo::EntryId;
use bx_lens::LensLaw;

/// How bad a finding is. Exit-code semantics and [`DiagnosticsIndex::is_clean`]
/// key on [`Severity::Error`] only: warnings and notes inform, errors fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The entry does not merely inform — publishing it violates a law.
    Error,
    /// Suspicious but not law-breaking (e.g. a reviewer with no account).
    Warning,
    /// A fact worth surfacing (e.g. a declared-only claim no law backs).
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Info => write!(f, "info"),
        }
    }
}

/// The law families the checker enforces — the catalogue rows of the
/// README table. Every [`Diagnostic`] names the law it was derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLaw {
    /// §3 template side conditions ([`bx_core::template::ExampleEntry::validate`]).
    TemplateWellFormed,
    /// `entry:` cross-references resolve to a live entry (and version).
    CitationResolves,
    /// §5.1 curatorial invariants: reviewed versions, reviewer roles,
    /// no self-review.
    CurationInvariant,
    /// A declared property claim checked against its registered law
    /// matrix ([`bx_theory::LawMatrix::verify_claims`]).
    ClaimVerified,
    /// A registered lens artefact's round-trip law
    /// ([`bx_lens::check_lens_law`]).
    LensRoundTrip(LensLaw),
}

impl fmt::Display for LintLaw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintLaw::TemplateWellFormed => write!(f, "template-well-formed"),
            LintLaw::CitationResolves => write!(f, "citation-resolves"),
            LintLaw::CurationInvariant => write!(f, "curation-invariant"),
            LintLaw::ClaimVerified => write!(f, "claim-verified"),
            LintLaw::LensRoundTrip(law) => write!(f, "lens-round-trip({law})"),
        }
    }
}

/// One finding against one entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The law family that produced the finding.
    pub law: LintLaw,
    /// How bad it is.
    pub severity: Severity,
    /// Where in the entry it points (a template field path such as
    /// `references[2]` or `artefacts[0]` — entries have no line numbers).
    pub span: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.law, self.span, self.message
        )
    }
}

/// The live diagnostics of a repository: entry id → current findings,
/// queryable next to search. Entries with no findings carry no key, so
/// two indexes over equal states compare equal regardless of the event
/// order that produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagnosticsIndex {
    by_entry: BTreeMap<EntryId, Vec<Diagnostic>>,
}

impl DiagnosticsIndex {
    /// Replace the findings for one entry; an empty list clears it.
    pub(crate) fn set_entry(&mut self, id: &EntryId, diagnostics: Vec<Diagnostic>) {
        if diagnostics.is_empty() {
            self.by_entry.remove(id);
        } else {
            self.by_entry.insert(id.clone(), diagnostics);
        }
    }

    /// The current findings for one entry (empty when clean).
    pub fn diagnostics_of(&self, id: &EntryId) -> &[Diagnostic] {
        self.by_entry.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Entries that currently have findings, in id order.
    pub fn entries(&self) -> impl Iterator<Item = &EntryId> {
        self.by_entry.keys()
    }

    /// All findings, grouped by entry in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&EntryId, &[Diagnostic])> {
        self.by_entry.iter().map(|(id, d)| (id, d.as_slice()))
    }

    /// How many entries currently have findings.
    pub fn entry_count(&self) -> usize {
        self.by_entry.len()
    }

    fn count(&self, severity: Severity) -> usize {
        self.by_entry
            .values()
            .flatten()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Current error findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Current warning findings.
    pub(crate) fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Current info findings.
    pub(crate) fn info_count(&self) -> usize {
        self.count(Severity::Info)
    }

    /// No errors (warnings and infos do not dirty a repository).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// A human-readable report: findings grouped by entry, then a
    /// severity tally — what `bx lint` prints.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (id, diagnostics) in self.iter() {
            out.push_str(&format!("{id}\n", id = id.as_str()));
            for d in diagnostics {
                out.push_str(&format!("  {d}\n"));
            }
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info(s) across {} entr{}\n",
            self.error_count(),
            self.warning_count(),
            self.info_count(),
            self.entry_count(),
            if self.entry_count() == 1 { "y" } else { "ies" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity) -> Diagnostic {
        Diagnostic {
            law: LintLaw::TemplateWellFormed,
            severity,
            span: "template".to_string(),
            message: "m".to_string(),
        }
    }

    #[test]
    fn index_counts_and_clears() {
        let mut index = DiagnosticsIndex::default();
        assert!(index.is_clean());
        let id = EntryId::from_title("COMPOSERS");
        index.set_entry(&id, vec![diag(Severity::Error), diag(Severity::Info)]);
        assert_eq!(index.error_count(), 1);
        assert_eq!(index.info_count(), 1);
        assert!(!index.is_clean());
        assert_eq!(index.diagnostics_of(&id).len(), 2);
        // Clearing via an empty list removes the key entirely, so the
        // index equals one that never saw the entry.
        index.set_entry(&id, Vec::new());
        assert_eq!(index, DiagnosticsIndex::default());
    }

    #[test]
    fn diagnostics_render() {
        let d = Diagnostic {
            law: LintLaw::CitationResolves,
            severity: Severity::Error,
            span: "references[1]".to_string(),
            message: "no entry `ghost`".to_string(),
        };
        assert_eq!(
            d.to_string(),
            "error[citation-resolves] references[1]: no entry `ghost`"
        );
        let mut index = DiagnosticsIndex::default();
        index.set_entry(&EntryId::from_title("X"), vec![d]);
        let report = index.report();
        assert!(report.contains("x\n"));
        assert!(report.contains("1 error(s), 0 warning(s), 0 info(s) across 1 entry"));
    }
}
