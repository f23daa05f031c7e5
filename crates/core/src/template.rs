//! The standard entry template (§3 of the paper).
//!
//! Fields and their order follow the paper exactly; optional fields
//! (marked `?` in the paper) may be empty. [`ExampleEntry::validate`]
//! enforces the paper's side conditions: required fields "should be
//! present, even if brief", the Overview is "not more than two or three
//! sentences", and PRECISE and SKETCH "should be mutually exclusive" while
//! either "might be combined with INDUSTRIAL".

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use bx_theory::Claim;

use crate::version::Version;

/// The class an example belongs to ("Type" in the template). The paper
/// names PRECISE, INDUSTRIAL and SKETCH and, following Anjorin et al.
/// (BenchmarX, same volume), treats benchmarks as a distinct class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ExampleType {
    /// Small, defined precisely, formalism-independent.
    Precise,
    /// Industrial-scale, explained through its artefacts.
    Industrial,
    /// A situation where a bx would clearly apply, details not worked out.
    Sketch,
    /// A benchmark in the BenchmarX sense.
    Benchmark,
}

impl ExampleType {
    /// All types, in display order.
    pub const ALL: [ExampleType; 4] = [
        ExampleType::Precise,
        ExampleType::Industrial,
        ExampleType::Sketch,
        ExampleType::Benchmark,
    ];
}

impl fmt::Display for ExampleType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExampleType::Precise => "PRECISE",
            ExampleType::Industrial => "INDUSTRIAL",
            ExampleType::Sketch => "SKETCH",
            ExampleType::Benchmark => "BENCHMARK",
        };
        write!(f, "{s}")
    }
}

impl FromStr for ExampleType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "PRECISE" => Ok(ExampleType::Precise),
            "INDUSTRIAL" => Ok(ExampleType::Industrial),
            "SKETCH" => Ok(ExampleType::Sketch),
            "BENCHMARK" => Ok(ExampleType::Benchmark),
            other => Err(format!("unknown example type `{other}`")),
        }
    }
}

/// Forward/backward halves of the Consistency Restoration field.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RestorationSpec {
    /// How forward restoration repairs the target model.
    pub forward: String,
    /// How backward restoration repairs the source model.
    pub backward: String,
}

/// A variation point (the Variants? field): a place where more than one
/// choice is reasonable; the base example fixes one, variants are
/// described here.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VariantPoint {
    /// A short name for the choice point.
    pub name: String,
    /// The choices and their consequences.
    pub description: String,
}

/// A bibliographic reference (the References? field).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reference {
    /// Free-form citation text.
    pub citation: String,
    /// DOI, if known.
    pub doi: Option<String>,
}

/// The kind of an attached artefact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArtefactKind {
    /// Executable code.
    Code,
    /// A diagram suitable for papers and talks.
    Diagram,
    /// Sample inputs and outputs.
    SampleData,
    /// A machine-checked proof script.
    ProofScript,
    /// A virtual machine instance.
    VmImage,
    /// Anything else.
    Other,
}

impl fmt::Display for ArtefactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArtefactKind::Code => "code",
            ArtefactKind::Diagram => "diagram",
            ArtefactKind::SampleData => "sample-data",
            ArtefactKind::ProofScript => "proof-script",
            ArtefactKind::VmImage => "vm-image",
            ArtefactKind::Other => "other",
        };
        write!(f, "{s}")
    }
}

impl FromStr for ArtefactKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "code" => Ok(ArtefactKind::Code),
            "diagram" => Ok(ArtefactKind::Diagram),
            "sample-data" => Ok(ArtefactKind::SampleData),
            "proof-script" => Ok(ArtefactKind::ProofScript),
            "vm-image" => Ok(ArtefactKind::VmImage),
            "other" => Ok(ArtefactKind::Other),
            other => Err(format!("unknown artefact kind `{other}`")),
        }
    }
}

/// An attached artefact (the Artefacts? field).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Artefact {
    /// Short name.
    pub name: String,
    /// What it is.
    pub kind: ArtefactKind,
    /// Where it lives (path, URL, or module path for executable entries).
    pub location: String,
}

/// A community comment (the Comments field; any wiki member may add one).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Comment {
    /// The commenting account.
    pub author: String,
    /// ISO date the comment was made.
    pub date: String,
    /// Comment text.
    pub text: String,
}

/// A complete repository entry, following the §3 template field-for-field.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExampleEntry {
    /// Title — "a descriptive name, such as COMPOSERS".
    pub title: String,
    /// Version — 0.x for unreviewed examples.
    pub version: Version,
    /// Type(s) — PRECISE, INDUSTRIAL, SKETCH, BENCHMARK.
    pub types: Vec<ExampleType>,
    /// Overview — a thumbnail description, two or three sentences.
    pub overview: String,
    /// Models — descriptions of the model classes.
    pub models: String,
    /// Consistency — the consistency relation, at least in English.
    pub consistency: String,
    /// Consistency Restoration — how inconsistencies are repaired.
    pub restoration: RestorationSpec,
    /// Properties? — claims linking to the glossary.
    pub properties: Vec<Claim>,
    /// Variants? — variation points of the base example.
    pub variants: Vec<VariantPoint>,
    /// Discussion — origin, utility, interest, related examples.
    pub discussion: String,
    /// References? — bibliographic data.
    pub references: Vec<Reference>,
    /// Authors — contributing author(s) of the entry.
    pub authors: Vec<String>,
    /// Reviewers? — named reviewers once reviewed.
    pub reviewers: Vec<String>,
    /// Comments — community commentary.
    pub comments: Vec<Comment>,
    /// Artefacts? — attached formal descriptions, code, diagrams.
    pub artefacts: Vec<Artefact>,
}

impl ExampleEntry {
    /// Start building an entry.
    pub fn builder(title: &str) -> EntryBuilder {
        EntryBuilder {
            entry: ExampleEntry {
                title: title.to_string(),
                version: Version::initial(),
                types: Vec::new(),
                overview: String::new(),
                models: String::new(),
                consistency: String::new(),
                restoration: RestorationSpec::default(),
                properties: Vec::new(),
                variants: Vec::new(),
                discussion: String::new(),
                references: Vec::new(),
                authors: Vec::new(),
                reviewers: Vec::new(),
                comments: Vec::new(),
                artefacts: Vec::new(),
            },
        }
    }

    /// Validate against the template's side conditions. Returns every
    /// problem found (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.title.trim().is_empty() {
            problems.push("title must be present".to_string());
        }
        if self.types.is_empty() {
            problems.push("at least one Type is required".to_string());
        }
        if self.types.contains(&ExampleType::Precise) && self.types.contains(&ExampleType::Sketch) {
            problems.push("PRECISE and SKETCH are mutually exclusive".to_string());
        }
        if self.overview.trim().is_empty() {
            problems.push("overview must be present, even if brief".to_string());
        }
        // "not more than two or three sentences": flag clearly oversized
        // overviews (sentence counting is approximate by design).
        let sentences = self.overview.matches(['.', '!', '?']).count();
        if sentences > 5 {
            problems.push(format!(
                "overview should be a thumbnail (two or three sentences), found ~{sentences}"
            ));
        }
        if self.models.trim().is_empty() {
            problems.push("models description must be present".to_string());
        }
        if self.consistency.trim().is_empty() {
            problems.push("consistency description must be present".to_string());
        }
        if self.restoration.forward.trim().is_empty() && self.restoration.backward.trim().is_empty()
        {
            problems.push("consistency restoration must be described".to_string());
        }
        if self.discussion.trim().is_empty() {
            problems.push("discussion must be present".to_string());
        }
        if self.authors.is_empty() {
            problems.push("at least one author is required".to_string());
        }
        if self.version.is_reviewed() && self.reviewers.is_empty() {
            problems.push("reviewed versions (>= 1.0) must name their reviewers".to_string());
        }
        problems
    }

    /// The stable identifier derived from the title: lowercase, runs of
    /// non-alphanumerics collapsed to `-`.
    pub fn slug(&self) -> String {
        slug_of(&self.title)
    }
}

/// Derive a stable slug from a title.
pub(crate) fn slug_of(title: &str) -> String {
    let mut out = String::with_capacity(title.len());
    let mut dash_pending = false;
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            if dash_pending && !out.is_empty() {
                out.push('-');
            }
            dash_pending = false;
            out.push(c.to_ascii_lowercase());
        } else {
            dash_pending = true;
        }
    }
    out
}

/// Fluent builder for [`ExampleEntry`].
pub struct EntryBuilder {
    entry: ExampleEntry,
}

impl EntryBuilder {
    /// Add a Type.
    pub fn of_type(mut self, t: ExampleType) -> Self {
        self.entry.types.push(t);
        self
    }

    /// Set the Overview.
    pub fn overview(mut self, text: &str) -> Self {
        self.entry.overview = text.to_string();
        self
    }

    /// Set the Models description.
    pub fn models(mut self, text: &str) -> Self {
        self.entry.models = text.to_string();
        self
    }

    /// Set the Consistency description.
    pub fn consistency(mut self, text: &str) -> Self {
        self.entry.consistency = text.to_string();
        self
    }

    /// Set the restoration descriptions.
    pub fn restoration(mut self, forward: &str, backward: &str) -> Self {
        self.entry.restoration = RestorationSpec {
            forward: forward.to_string(),
            backward: backward.to_string(),
        };
        self
    }

    /// Add a property claim.
    pub fn property(mut self, claim: Claim) -> Self {
        self.entry.properties.push(claim);
        self
    }

    /// Add a variation point.
    pub fn variant(mut self, name: &str, description: &str) -> Self {
        self.entry.variants.push(VariantPoint {
            name: name.to_string(),
            description: description.to_string(),
        });
        self
    }

    /// Set the Discussion.
    pub fn discussion(mut self, text: &str) -> Self {
        self.entry.discussion = text.to_string();
        self
    }

    /// Add a reference.
    pub fn reference(mut self, citation: &str, doi: Option<&str>) -> Self {
        self.entry.references.push(Reference {
            citation: citation.to_string(),
            doi: doi.map(str::to_string),
        });
        self
    }

    /// Add an author.
    pub fn author(mut self, name: &str) -> Self {
        self.entry.authors.push(name.to_string());
        self
    }

    /// Attach an artefact.
    pub fn artefact(mut self, name: &str, kind: ArtefactKind, location: &str) -> Self {
        self.entry.artefacts.push(Artefact {
            name: name.to_string(),
            kind,
            location: location.to_string(),
        });
        self
    }

    /// Finish, validating the template side conditions.
    pub fn build(self) -> Result<ExampleEntry, crate::error::RepoError> {
        let problems = self.entry.validate();
        if problems.is_empty() {
            Ok(self.entry)
        } else {
            Err(crate::error::RepoError::InvalidEntry(problems))
        }
    }

    /// Finish without validation (for deliberately incomplete drafts and
    /// for tests of the validator itself).
    pub fn build_unchecked(self) -> ExampleEntry {
        self.entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_theory::Property;

    fn minimal() -> EntryBuilder {
        ExampleEntry::builder("COMPOSERS")
            .of_type(ExampleType::Precise)
            .overview(
                "Two representations of composers. Consistency is easy; restoration has choices.",
            )
            .models("A set of composers vs an ordered list of (name, nationality) pairs.")
            .consistency("Same set of (name, nationality) pairs on both sides.")
            .restoration(
                "Delete stale entries, append missing pairs.",
                "Delete stale composers, add new ones with unknown dates.",
            )
            .discussion("Classic witness that undoability is too strong.")
            .author("Perdita Stevens")
    }

    #[test]
    fn valid_entry_builds() {
        let e = minimal().build().expect("minimal entry is valid");
        assert_eq!(e.title, "COMPOSERS");
        assert_eq!(e.version, Version::initial());
        assert!(e.validate().is_empty());
    }

    #[test]
    fn missing_fields_all_reported() {
        let e = ExampleEntry::builder("X").build_unchecked();
        let problems = e.validate();
        assert!(problems.iter().any(|p| p.contains("Type")));
        assert!(problems.iter().any(|p| p.contains("overview")));
        assert!(problems.iter().any(|p| p.contains("models")));
        assert!(problems.iter().any(|p| p.contains("consistency")));
        assert!(problems.iter().any(|p| p.contains("restoration")));
        assert!(problems.iter().any(|p| p.contains("discussion")));
        assert!(problems.iter().any(|p| p.contains("author")));
    }

    #[test]
    fn precise_and_sketch_exclusive() {
        let e = minimal().of_type(ExampleType::Sketch).build_unchecked();
        assert!(e
            .validate()
            .iter()
            .any(|p| p.contains("mutually exclusive")));
        // But PRECISE + INDUSTRIAL is fine.
        let e = minimal().of_type(ExampleType::Industrial).build_unchecked();
        assert!(e.validate().is_empty());
    }

    #[test]
    fn oversized_overview_flagged() {
        let long = "Sentence. ".repeat(10);
        let e = minimal().overview(&long).build_unchecked();
        assert!(e.validate().iter().any(|p| p.contains("thumbnail")));
    }

    #[test]
    fn reviewed_needs_reviewers() {
        let mut e = minimal().build().unwrap();
        e.version = Version::new(1, 0);
        assert!(e.validate().iter().any(|p| p.contains("reviewers")));
        e.reviewers.push("James Cheney".to_string());
        assert!(e.validate().is_empty());
    }

    #[test]
    fn slugs_are_stable_identifiers() {
        assert_eq!(slug_of("COMPOSERS"), "composers");
        assert_eq!(slug_of("UML to RDBMS"), "uml-to-rdbms");
        assert_eq!(slug_of("  Weird -- Title!! "), "weird-title");
        let e = minimal().build().unwrap();
        assert_eq!(e.slug(), "composers");
    }

    #[test]
    fn type_and_artefact_kind_roundtrip() {
        for t in ExampleType::ALL {
            assert_eq!(t.to_string().parse::<ExampleType>().unwrap(), t);
        }
        for k in [
            ArtefactKind::Code,
            ArtefactKind::Diagram,
            ArtefactKind::SampleData,
            ArtefactKind::ProofScript,
            ArtefactKind::VmImage,
            ArtefactKind::Other,
        ] {
            assert_eq!(k.to_string().parse::<ArtefactKind>().unwrap(), k);
        }
        assert!("NONSENSE".parse::<ExampleType>().is_err());
    }

    #[test]
    fn builder_populates_optional_fields() {
        let e = minimal()
            .property(Claim::holds(Property::Correct))
            .variant("insert position", "beginning or end of the list")
            .reference("Stevens 2008", Some("10.1007/978-3-540-75209-7_1"))
            .artefact("rust impl", ArtefactKind::Code, "bx_examples::composers")
            .build()
            .unwrap();
        assert_eq!(e.properties.len(), 1);
        assert_eq!(e.variants.len(), 1);
        assert_eq!(e.references.len(), 1);
        assert_eq!(e.artefacts.len(), 1);
    }
}
