//! # bx-lint — the repository statically analyzes itself
//!
//! The paper's central claim is that the repository is *curated*: every
//! published example carries laws that are supposed to hold. This crate
//! turns those laws from an ad-hoc test concern into a live service —
//! an incremental checking engine on the repository event bus, in the
//! parser → checkers → engine → diagnostics → CLI shape of a language
//! linter.
//!
//! ```text
//!        RepoEvent              affected set               findings
//! bus ──────────────▶ mirror ──────────────▶ serial task ─────────▶ DiagnosticsIndex
//!                     snapshot +             on the caller's         (entry → Vec<Diagnostic>)
//!                     reverse deps           Runtime × CheckCatalog
//! ```
//!
//! * [`diagnostics`] — [`Diagnostic`], [`Severity`], [`LintLaw`] and the
//!   queryable [`DiagnosticsIndex`];
//! * [`check`] — the pure per-entry checks (template well-formedness,
//!   citation integrity, curation invariants, claim verification, lens
//!   round-trips) and the cold [`full_check`] built from them;
//! * [`catalog`] — [`CheckCatalog`]: executable law checks keyed by the
//!   `Code` artefact locations entries carry, with the workspace's own
//!   [`standard_catalog`];
//! * [`engine`] — the synchronous [`Linter`] and the live [`LawChecker`]
//!   event sink. Both keep a reverse-dependency map, so an event
//!   re-checks O(affected) entries, not O(repository).
//!
//! The engine's contract, pinned by `tests/lint_equivalence.rs`: after
//! any event sequence — including replica re-bases, torn log tails and
//! federated sources — the live index equals a cold [`full_check`] over
//! the final snapshot.

pub mod catalog;
pub mod check;
mod deps;
pub mod diagnostics;
pub mod engine;

pub use catalog::{standard_catalog, CheckCatalog};
pub use check::full_check;
pub use diagnostics::{Diagnostic, DiagnosticsIndex, LintLaw, Severity};
pub use engine::{LawChecker, Linter};
