//! Persistence: the wiki-markup-independent form (§5.4: "we shall …
//! maintain a local copy of the repository contents, in case of future
//! difficulties").
//!
//! Snapshots serialise to JSON via serde. JSON is the archival format;
//! the wiki markup of [`crate::wiki`] is the presentation format; the bx
//! of [`crate::wiki_bx`] keeps the two consistent.
//!
//! These free functions are the whole-snapshot archival layer; the
//! pluggable, delta-aware persistence story lives in [`crate::storage`].

use std::path::Path;

use crate::error::RepoError;
use crate::repo::{Repository, RepositorySnapshot};

/// Serialise a snapshot to pretty-printed JSON.
pub fn to_json(snapshot: &RepositorySnapshot) -> Result<String, RepoError> {
    serde_json::to_string_pretty(snapshot).map_err(|e| RepoError::Persist(e.to_string()))
}

/// Deserialise a snapshot from JSON.
pub fn from_json(json: &str) -> Result<RepositorySnapshot, RepoError> {
    serde_json::from_str(json).map_err(|e| RepoError::Persist(e.to_string()))
}

/// Save a repository's snapshot to a file.
pub fn save_file(repo: &Repository, path: &Path) -> Result<(), RepoError> {
    let json = to_json(&repo.snapshot())?;
    std::fs::write(path, json).map_err(|e| RepoError::Persist(e.to_string()))
}

/// Load a repository from a snapshot file.
pub fn load_file(path: &Path) -> Result<Repository, RepoError> {
    let json = std::fs::read_to_string(path).map_err(|e| RepoError::Persist(e.to_string()))?;
    Ok(Repository::from_snapshot(from_json(&json)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::Principal;
    use crate::template::{ExampleEntry, ExampleType};
    use bx_theory::{Claim, Property};

    fn repo() -> Repository {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let e = ExampleEntry::builder("COMPOSERS")
            .of_type(ExampleType::Precise)
            .overview("O.")
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .property(Claim::holds(Property::Correct))
            .property(Claim::fails(Property::Undoable))
            .discussion("D.")
            .author("alice")
            .build()
            .unwrap();
        r.contribute("alice", e).unwrap();
        r
    }

    #[test]
    fn json_roundtrip_preserves_snapshot() {
        let snap = repo().snapshot();
        let json = to_json(&snap).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_contains_claims_and_versions() {
        let json = to_json(&repo().snapshot()).unwrap();
        assert!(json.contains("Undoable"));
        assert!(json.contains("Fails"));
        assert!(json.contains("\"major\": 0"));
    }

    #[test]
    fn bad_json_reports_persist_error() {
        assert!(matches!(from_json("{ nope"), Err(RepoError::Persist(_))));
    }

    #[test]
    fn file_roundtrip() {
        // Per-process path: parallel test runs (or stale files from an
        // aborted one) must not collide.
        let dir = std::env::temp_dir().join(format!("bx-core-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        let r = repo();
        save_file(&r, &path).unwrap();
        let r2 = load_file(&path).unwrap();
        assert_eq!(r2.snapshot(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_files_are_to_json_byte_for_byte() {
        // The archival format is pinned: a saved file is exactly the
        // pretty-printed `to_json` text, so existing archives load
        // unchanged.
        let dir =
            std::env::temp_dir().join(format!("bx-core-persist-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");
        let r = repo();
        save_file(&r, &path).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, to_json(&r.snapshot()).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reports_persist_error() {
        let e = load_file(Path::new("/nonexistent/definitely/missing.json"));
        assert!(matches!(e, Err(RepoError::Persist(_))));
    }
}
