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
//!        RepoEvent                 affected set            findings
//! bus ──────────────▶ [DepMap] ──────────────▶ worker pool ─────────▶ DiagnosticsIndex
//!                      mirror                   check_entry            (entry → Vec<Diagnostic>)
//!                      snapshot                 × CheckCatalog              │ delta sink
//!                                                                          ▼
//!                                                                    subscribers
//! ```
//!
//! * [`diagnostics`] — [`Diagnostic`], [`Severity`], [`LintLaw`] and the
//!   queryable [`DiagnosticsIndex`];
//! * [`check`] — the pure checkers: [`check_entry`] (template
//!   well-formedness, citation integrity, curation invariants, claim
//!   verification, lens round-trips) and the cold [`full_check`];
//! * [`catalog`] — [`CheckCatalog`]: executable law checks keyed by the
//!   `Code` artefact locations entries carry, with the workspace's own
//!   [`standard_catalog`];
//! * [`deps`] — [`DepMap`], the reverse-dependency map that makes
//!   re-checking O(affected), not O(repository);
//! * [`engine`] — the synchronous [`Linter`] and the threaded
//!   [`LawChecker`] event sink with its worker pool and
//!   [`engine::DeltaSink`] push hook.
//!
//! The engine's contract, pinned by `tests/lint_equivalence.rs`: after
//! any event sequence — including replica re-bases, torn log tails and
//! federated sources — the live index equals a cold [`full_check`] over
//! the final snapshot.

pub mod catalog;
pub mod check;
pub mod deps;
pub mod diagnostics;
pub mod engine;

pub use catalog::{standard_catalog, CheckCatalog};
pub use check::{check_entry, full_check};
pub use deps::DepMap;
pub use diagnostics::{Diagnostic, DiagnosticsIndex, LintLaw, Severity};
pub use engine::{DeltaSink, LawChecker, Linter};
