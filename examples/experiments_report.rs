//! Prints the verification side of the experiments: for every
//! executable entry in the collection, the law matrix and the verdict on
//! each published property claim — the paper's §4 Properties list as a
//! machine-checked table.
//!
//! Run with: `cargo run --example experiments_report`

use bx::examples::benchmark::{generate_composers, pairs_of, perturb_pairs};
use bx::examples::composers::{composers_bx, ComposerSet, PairList};
use bx::examples::families::{families_bx, Family, FamilyModel, NewMemberPolicy, PersonModel};
use bx::examples::uml2rdbms::{uml2rdbms_bx, RdbModel, UmlModel};
use bx::theory::{check_all_laws, Bx, Claim, Samples};

fn report<M, N, B>(title: &str, bx: &B, samples: &Samples<M, N>, claims: &[Claim])
where
    M: Clone + PartialEq + std::fmt::Debug,
    N: Clone + PartialEq + std::fmt::Debug,
    B: Bx<M, N>,
{
    println!("== {title} ==");
    let matrix = check_all_laws(bx, samples);
    for r in &matrix.reports {
        println!("  {r}");
    }
    println!("  published claims:");
    for verdict in matrix.verify_claims(claims) {
        println!("    {verdict}");
    }
    println!();
}

fn entry_claims(title: &str) -> Vec<Claim> {
    bx::examples::all_entries()
        .into_iter()
        .find(|e| e.title == title)
        .map(|e| e.properties)
        .unwrap_or_default()
}

fn composers_samples() -> Samples<ComposerSet, PairList> {
    let m1 = generate_composers(12, 1);
    let n1 = pairs_of(&m1);
    let bad = perturb_pairs(&n1, 3, 2, 1);
    let m2 = generate_composers(4, 2);
    Samples::new(
        vec![
            (m1.clone(), n1.clone()),
            (m1, bad),
            (m2.clone(), pairs_of(&m2)),
        ],
        vec![ComposerSet::new(), m2],
        vec![PairList::new()],
    )
}

fn uml_samples() -> Samples<UmlModel, RdbModel> {
    let b = uml2rdbms_bx();
    let m1 = UmlModel::default()
        .with_class(
            "Person",
            true,
            &[("id", "Integer", true), ("name", "String", false)],
        )
        .with_class("Session", false, &[("token", "String", true)])
        .document("Person", "name", "full legal name");
    let n1 = b.fwd(&m1, &RdbModel::default());
    let m2 = UmlModel::default().with_class("Invoice", true, &[("total", "Integer", false)]);
    let n2 = b.fwd(&m2, &RdbModel::default());
    Samples::new(
        vec![(m1.clone(), n1), (m2.clone(), n2.clone()), (m1, n2)],
        vec![m2, UmlModel::default()],
        vec![RdbModel::default()],
    )
}

fn family_samples() -> Samples<FamilyModel, PersonModel> {
    let b = families_bx(NewMemberPolicy::PreferChild);
    let mut m1 = FamilyModel::new();
    m1.insert(
        "March".to_string(),
        Family {
            father: Some("Jim".to_string()),
            mother: Some("Cindy".to_string()),
            sons: ["Brandon".to_string()].into(),
            daughters: ["Brenda".to_string()].into(),
        },
    );
    let n1 = b.fwd(&m1, &PersonModel::new());
    Samples::new(
        vec![(m1.clone(), n1), (m1, PersonModel::new())],
        vec![FamilyModel::new()],
        vec![PersonModel::new()],
    )
}

fn main() {
    println!("bx-repo experiments report — law matrices & claim verdicts\n");

    report(
        "E2/E3 COMPOSERS (paper section 4)",
        &composers_bx(),
        &composers_samples(),
        &entry_claims("COMPOSERS"),
    );
    report(
        "E8 UML2RDBMS",
        &uml2rdbms_bx(),
        &uml_samples(),
        &entry_claims("UML2RDBMS"),
    );
    report(
        "FAMILIES2PERSONS (prefer-child)",
        &families_bx(NewMemberPolicy::PreferChild),
        &family_samples(),
        &entry_claims("FAMILIES2PERSONS"),
    );
    report(
        "E7 repository<->wiki (paper section 5.4)",
        &bx::core::wiki_bx::WikiBx::new(),
        &{
            let bx = bx::core::wiki_bx::WikiBx::new();
            let snap = bx::examples::standard_repository().snapshot();
            let mut small = snap.clone();
            let extra: Vec<_> = small.records.keys().skip(3).cloned().collect();
            for id in extra {
                small.records.remove(&id);
            }
            let site = bx.fwd(&snap, &bx::core::WikiSite::new());
            let small_site = bx.fwd(&small, &bx::core::WikiSite::new());
            Samples::new(
                vec![
                    (snap.clone(), site.clone()),
                    (small.clone(), site),
                    (snap, small_site),
                ],
                vec![small],
                vec![bx::core::WikiSite::new()],
            )
        },
        &[
            Claim::holds(bx::theory::Property::Correct),
            Claim::holds(bx::theory::Property::Hippocratic),
        ],
    );

    println!("(UndoableFwd/UndoableBwd violations above are the *expected* outcome:");
    println!(" the entries claim \"Not undoable\" and the checker confirms it.)");
}
