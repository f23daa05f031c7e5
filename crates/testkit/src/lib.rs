//! # bx-testkit
//!
//! Test substrate for the bx workspace:
//!
//! * [`strategies`] — proptest strategies generating models of every
//!   example domain (composer sets, pair lists, relations, family
//!   models, wiki-safe text);
//! * [`harness`] — glue turning generated models into
//!   [`bx_theory::Samples`] and asserting law bundles;
//! * [`faults`] — deliberately broken bx wrappers used to verify that the
//!   law checkers actually catch violations (testing the testers), and
//!   storage faults (mid-stream crashes, torn appends) for durability
//!   recovery tests;
//! * [`ops`] — random repository mutation scripts, driving the delta
//!   equivalence properties (incremental index ≡ rebuild, replay ≡
//!   snapshot restore);
//! * [`federation`] — the multi-primary property harness: interleaved
//!   scripts across N primaries with per-source fault plans (compaction,
//!   writer kills, torn appends), returning the durable folds a
//!   federation must converge to.

pub mod faults;
pub mod federation;
pub mod harness;
pub mod ops;
pub mod strategies;

pub use faults::{
    torn_append, BreakCorrectFwd, BreakHippocraticBwd, BreakHippocraticFwd, CrashingBackend,
};
pub use federation::{
    arb_federation_script, arb_source_plan, catch_up_clean, drive_federation, open_replica,
    FederationScript, SourcePlan,
};
pub use harness::{assert_well_behaved, samples_from_models};
