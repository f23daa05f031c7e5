//! The check catalog: executable law checks keyed by the artefact
//! location strings entries carry (`Artefact { kind: Code, location }`).
//!
//! An entry's claims are words until something can run them. The catalog
//! is that something: it maps a `Code` artefact location such as
//! `bx_examples::composers::composers_bx` to a closure producing the
//! bx's [`LawMatrix`] over curated samples (so the entry's §3 *Properties*
//! claims can be verified), or to a closure producing lens round-trip
//! [`LensLawReport`]s. Entries whose artefacts are not registered are
//! simply not law-checked — their claims stay declared-only.

use std::collections::BTreeMap;
use std::sync::Arc;

use bx_lens::{check_lens_law, FnLens, LensLaw, LensLawReport};
use bx_theory::{check_all_laws, LawMatrix, Samples};

/// Produces lens round-trip reports for one registered lens artefact.
pub(crate) type LensCheckFn = Arc<dyn Fn() -> Vec<LensLawReport> + Send + Sync>;

/// Produces the full law matrix for one registered bx artefact.
pub(crate) type MatrixFn = Arc<dyn Fn() -> LawMatrix + Send + Sync>;

/// Executable checks keyed by artefact location; see the module docs.
#[derive(Clone, Default)]
pub struct CheckCatalog {
    lens_checks: BTreeMap<String, LensCheckFn>,
    matrices: BTreeMap<String, MatrixFn>,
}

impl std::fmt::Debug for CheckCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckCatalog")
            .field("lens_checks", &self.lens_checks.keys().collect::<Vec<_>>())
            .field("matrices", &self.matrices.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl CheckCatalog {
    /// An empty catalog (nothing is law-checked).
    pub fn new() -> CheckCatalog {
        CheckCatalog::default()
    }

    /// Register a lens round-trip check for the artefact at `location`.
    pub fn register_lens_check(
        &mut self,
        location: impl Into<String>,
        check: impl Fn() -> Vec<LensLawReport> + Send + Sync + 'static,
    ) {
        self.lens_checks.insert(location.into(), Arc::new(check));
    }

    /// Register a law-matrix producer for the artefact at `location`.
    pub(crate) fn register_matrix(
        &mut self,
        location: impl Into<String>,
        matrix: impl Fn() -> LawMatrix + Send + Sync + 'static,
    ) {
        self.matrices.insert(location.into(), Arc::new(matrix));
    }

    /// The lens check registered at `location`, if any.
    pub(crate) fn lens_check(&self, location: &str) -> Option<&LensCheckFn> {
        self.lens_checks.get(location)
    }

    /// The matrix producer registered at `location`, if any.
    pub(crate) fn matrix(&self, location: &str) -> Option<&MatrixFn> {
        self.matrices.get(location)
    }

    /// How many checks are registered in total.
    pub fn len(&self) -> usize {
        self.lens_checks.len() + self.matrices.len()
    }

    /// Is nothing registered?
    pub fn is_empty(&self) -> bool {
        self.lens_checks.is_empty() && self.matrices.is_empty()
    }
}

/// The catalog covering the workspace's own flagship artefacts — what
/// `bx lint` and the benches run with.
///
/// * `bx_examples::composers::composers_bx` — the full ten-law matrix
///   over the sample pool its paper-claims test uses. The pool is chosen
///   so the *negative* claim "Not undoable" is confirmed (it exhibits the
///   information-losing delete/restore counterexample), not merely
///   unrefuted.
/// * `bx_examples::composers_boomerang::composers_lens` — GetPut, PutGet
///   and CreateGet over its documented sample strings. PutPut is
///   deliberately **not** registered: dictionary lenses fail it by
///   construction (the entry's discussion says as much), so checking it
///   would turn a documented limitation into a standing error.
pub fn standard_catalog() -> CheckCatalog {
    use bx_examples::composers::{composer_set, composers_bx, pair_list};
    use bx_examples::composers_boomerang::{composers_lens, SAMPLE_SOURCE};

    let mut catalog = CheckCatalog::new();

    catalog.register_matrix("bx_examples::composers::composers_bx", || {
        let m1 = composer_set(&[
            ("Benjamin Britten", "1913-1976", "British"),
            ("Jean Sibelius", "1865-1957", "Finnish"),
            ("Aaron Copland", "1910-1990", "American"),
        ]);
        let n1 = pair_list(&[
            ("Benjamin Britten", "British"),
            ("Jean Sibelius", "Finnish"),
            ("Aaron Copland", "American"),
        ]);
        let m2 = composer_set(&[("Clara Schumann", "1819-1896", "German")]);
        let n2 = pair_list(&[("Clara Schumann", "German")]);
        let samples = Samples::new(
            vec![
                (m1.clone(), n1.clone()),
                (m2.clone(), n2.clone()),
                (m1.clone(), n2.clone()),
                (composer_set(&[]), pair_list(&[])),
                (m1.clone(), pair_list(&[("Jean Sibelius", "Finnish")])),
            ],
            vec![m2, composer_set(&[("Erik Satie", "1866-1925", "French")])],
            vec![n2, pair_list(&[])],
        );
        check_all_laws(&composers_bx(), &samples)
    });

    catalog.register_lens_check("bx_examples::composers_boomerang::composers_lens", || {
        // `StringLens` is partial (its get/put/create can reject
        // strings outside the lens language); over these documented
        // in-language samples it is total, so wrapping the
        // `.expect`ed calls in an `FnLens` lets the generic law
        // checker drive it.
        let name = composers_lens().name().to_string();
        let get = composers_lens();
        let put = composers_lens();
        let create = composers_lens();
        let lens = FnLens::new(
            name,
            move |s: &String| get.get(s).expect("sample source is in the lens language"),
            move |s: &String, v: &String| {
                put.put(s, v).expect("sample view is in the view language")
            },
            move |v: &String| {
                create
                    .create(v)
                    .expect("sample view is in the view language")
            },
        );
        let sources: Vec<String> = ["", SAMPLE_SOURCE, "One Name, 1-2, X\n"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let views: Vec<String> = ["", "A, X\n", "B, Y\nA, X\n"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        [LensLaw::GetPut, LensLaw::PutGet, LensLaw::CreateGet]
            .iter()
            .map(|&law| check_lens_law(&lens, law, &sources, &views))
            .collect()
    });

    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_theory::{Claim, Property};

    #[test]
    fn standard_catalog_registers_the_flagship_artefacts() {
        let catalog = standard_catalog();
        assert_eq!(catalog.len(), 2);
        assert!(catalog
            .matrix("bx_examples::composers::composers_bx")
            .is_some());
        assert!(catalog
            .lens_check("bx_examples::composers_boomerang::composers_lens")
            .is_some());
        assert!(catalog.matrix("not registered").is_none());
    }

    #[test]
    fn the_composers_matrix_confirms_the_entry_claims() {
        let catalog = standard_catalog();
        let matrix = catalog
            .matrix("bx_examples::composers::composers_bx")
            .unwrap()();
        let verdicts = matrix.verify_claims(&[
            Claim::holds(Property::Correct),
            Claim::holds(Property::Hippocratic),
            Claim::fails(Property::Undoable),
        ]);
        for verdict in &verdicts {
            assert!(verdict.confirmed(), "expected confirmation, got: {verdict}");
        }
    }

    #[test]
    fn the_boomerang_lens_checks_hold_on_their_samples() {
        let catalog = standard_catalog();
        let reports = catalog
            .lens_check("bx_examples::composers_boomerang::composers_lens")
            .unwrap()();
        assert_eq!(reports.len(), 3);
        for report in &reports {
            assert!(report.holds(), "expected a clean report, got: {report}");
        }
    }
}
