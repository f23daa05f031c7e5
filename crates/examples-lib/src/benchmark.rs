//! COMPOSERS-AT-SCALE — a BENCHMARK-class entry (the paper, citing
//! Anjorin et al.'s BenchmarX in the same volume, agrees "benchmarks may
//! be seen as a distinct class and therefore should be included").
//!
//! The entry packages deterministic, scale-parameterised workload
//! generators for the COMPOSERS models; the criterion benches (crate
//! `bx-bench`) use them to regenerate the scaling series.

use bx_core::{ArtefactKind, ExampleEntry, ExampleType};

use crate::composers::model::{Composer, ComposerSet, PairList};

/// A tiny deterministic linear congruential generator so workloads are
/// reproducible without pulling `rand` into the examples crate.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// Seeded generator.
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493))
    }

    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        // Numerical Recipes LCG constants.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform value below `bound` (bound > 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

const FIRST: [&str; 8] = [
    "Jean", "Aaron", "Clara", "Benjamin", "Erik", "Amy", "Lili", "Ralph",
];
const LAST: [&str; 8] = [
    "Sibelius",
    "Copland",
    "Schumann",
    "Britten",
    "Satie",
    "Beach",
    "Boulanger",
    "Vaughan",
];
const NATION: [&str; 6] = [
    "Finnish", "American", "German", "British", "French", "Austrian",
];

/// Generate `n` distinct composers, deterministically from `seed`.
pub fn generate_composers(n: usize, seed: u64) -> ComposerSet {
    let mut rng = Lcg::new(seed);
    let mut out = ComposerSet::new();
    let mut serial = 0usize;
    while out.len() < n {
        let name = format!(
            "{} {} {}",
            FIRST[rng.below(FIRST.len())],
            LAST[rng.below(LAST.len())],
            serial
        );
        serial += 1;
        let birth = 1600 + rng.below(350);
        let dates = format!("{}-{}", birth, birth + 30 + rng.below(60));
        let nationality = NATION[rng.below(NATION.len())];
        out.insert(Composer::new(&name, &dates, nationality));
    }
    out
}

/// The consistent pair list of a composer set (in set order).
pub fn pairs_of(composers: &ComposerSet) -> PairList {
    composers.iter().map(Composer::pair).collect()
}

/// Perturb a pair list: drop every `drop_every`-th entry and append
/// `add` fresh entries — the standard pre-restoration state for the
/// benchmark's forward runs.
pub fn perturb_pairs(pairs: &PairList, drop_every: usize, add: usize, seed: u64) -> PairList {
    let mut rng = Lcg::new(seed);
    let mut out: PairList = pairs
        .iter()
        .enumerate()
        .filter(|(i, _)| drop_every == 0 || (i + 1) % drop_every != 0)
        .map(|(_, p)| p.clone())
        .collect();
    for k in 0..add {
        out.push((
            format!("New Composer {k}"),
            NATION[rng.below(NATION.len())].to_string(),
        ));
    }
    out
}

/// Render a composer set in the Boomerang concrete syntax (for the
/// string-lens benchmarks).
pub fn to_boomerang_source(composers: &ComposerSet) -> String {
    let mut out = String::with_capacity(composers.len() * 40);
    for c in composers {
        // Names carry digits in generated data; the Boomerang lens's NAME
        // pattern is letters/spaces/dots, so map digits to letters.
        let name: String = c
            .name
            .chars()
            .map(|ch| {
                if ch.is_ascii_digit() {
                    (b'a' + (ch as u8 - b'0')) as char
                } else {
                    ch
                }
            })
            .collect();
        out.push_str(&format!("{}, {}, {}\n", name, c.dates, c.nationality));
    }
    out
}

/// The BENCHMARK-class repository entry.
pub fn benchmark_entry() -> ExampleEntry {
    ExampleEntry::builder("COMPOSERS-AT-SCALE")
        .of_type(ExampleType::Benchmark)
        .overview(
            "A benchmark packaging of COMPOSERS: deterministic generators \
             produce models of any size, with a standard perturbation defining \
             the pre-restoration state. Regenerates the scaling series of the \
             workspace's criterion benches.",
        )
        .models(
            "As COMPOSERS, with |m| = n generated composers and n-proportional \
             pair lists; perturbation drops every 10th entry and appends n/10 \
             fresh entries.",
        )
        .consistency("As COMPOSERS.")
        .restoration(
            "As COMPOSERS; measured quantity is wall-clock per restoration as n \
             grows.",
            "As COMPOSERS; measured symmetrically.",
        )
        .variant(
            "perturbation profile",
            "Drop/add ratios are parameters; heavier perturbation shifts cost \
             from the deletion scan to sorted insertion.",
        )
        .discussion(
            "Benchmarks are a distinct class of entry (BenchmarX, this \
             volume): what is specified is not just the bx but the workload \
             and the measured quantities.",
        )
        .reference(
            "Anjorin, Cunha, Giese, Hermann, Rensink, Schürr. BenchmarX. Bx 2014",
            None,
        )
        .author("James Cheney")
        .author("Perdita Stevens")
        .artefact(
            "generators",
            ArtefactKind::Code,
            "bx_examples::benchmark::generate_composers",
        )
        .artefact(
            "bench harness",
            ArtefactKind::Code,
            "bx-bench/benches/scale_restore.rs",
        )
        .build()
        .expect("template-valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composers::composers_bx;
    use bx_theory::Bx;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_composers(100, 42), generate_composers(100, 42));
        assert_ne!(generate_composers(100, 42), generate_composers(100, 43));
        assert_eq!(generate_composers(250, 7).len(), 250);
    }

    #[test]
    fn generated_pair_is_consistent() {
        let m = generate_composers(50, 1);
        let n = pairs_of(&m);
        assert!(composers_bx().consistent(&m, &n));
    }

    #[test]
    fn perturbation_breaks_consistency_and_fwd_repairs_it() {
        let b = composers_bx();
        let m = generate_composers(50, 1);
        let n = perturb_pairs(&pairs_of(&m), 10, 5, 9);
        assert!(!b.consistent(&m, &n));
        let repaired = b.fwd(&m, &n);
        assert!(b.consistent(&m, &repaired));
    }

    #[test]
    fn perturb_drop_every_zero_drops_nothing() {
        let m = generate_composers(20, 1);
        let n = pairs_of(&m);
        let p = perturb_pairs(&n, 0, 0, 0);
        assert_eq!(p, n);
    }

    #[test]
    fn boomerang_source_is_lens_compatible() {
        let m = generate_composers(30, 5);
        let src = to_boomerang_source(&m);
        let lens = crate::composers_boomerang::composers_lens();
        let view = lens
            .get(&src)
            .expect("generated source is in the lens language");
        assert_eq!(lens.put(&src, &view).expect("GetPut"), src);
    }

    #[test]
    fn entry_is_benchmark_class() {
        let e = benchmark_entry();
        assert!(e.validate().is_empty());
        assert_eq!(e.types, vec![ExampleType::Benchmark]);
    }
}
