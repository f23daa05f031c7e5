//! The JSON reader under every manifest and JSONL line: parse time is
//! linear in the input, `to_string` → `from_str` is the identity on any
//! string, and nesting too deep to parse on the stack is a typed error
//! (`CorruptFrame` in a log, `Persist` for a manifest), not an abort.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use bx::core::storage::{EventLogBackend, StorageBackend};
use bx::core::RepoError;
use bx_testkit::ops::{apply_ops, scripted_repository, unique_temp_dir, RepoOp};
use proptest::prelude::*;

/// Run `work` on its own thread and fail unless it finishes within a
/// bound generous for a linear parse (milliseconds) and hopeless for a
/// quadratic one (minutes).
fn within_watchdog(what: &str, work: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        work();
        done.send(()).ok();
    });
    match finished.recv_timeout(Duration::from_secs(10)) {
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not finish within 10 s"),
        // Finished, or panicked and dropped the sender: join to surface it.
        _ => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[test]
fn a_one_mebibyte_string_parses_in_linear_time() {
    within_watchdog("parsing one 1 MiB string", || {
        let text: String = "bx é😀 ".chars().cycle().take(1 << 20).collect();
        let json = serde_json::to_string(&text).unwrap();
        let back: String = serde_json::from_str(&json).unwrap();
        assert_eq!(back, text);
    });
}

#[test]
fn sixty_four_thousand_short_strings_parse_in_linear_time() {
    within_watchdog("parsing 64k short strings", || {
        let strings: Vec<String> = (0..65_536).map(|i| format!("entry-{i}")).collect();
        let json = serde_json::to_string(&strings).unwrap();
        let back: Vec<String> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, strings);
    });
}

/// A piece of string content and the ways JSON text may spell it: a
/// plain run, a short escape or a `\u` escape (a surrogate pair beyond
/// the BMP). Pieces are chosen so runs start and end at every kind of
/// boundary the parser cuts on.
const PIECES: &[(&str, &[&str])] = &[
    ("a", &["a", "\\u0061"]),
    ("bx", &["bx"]),
    ("é", &["é", "\\u00e9", "\\u00E9"]),
    ("ß", &["ß", "\\u00df"]),
    ("😀", &["😀", "\\ud83d\\ude00"]),
    ("\"", &["\\\"", "\\u0022"]),
    ("\\", &["\\\\", "\\u005c"]),
    ("/", &["/", "\\/"]),
    ("\n", &["\\n", "\\u000a"]),
    ("\t", &["\\t"]),
    ("\u{1}", &["\\u0001"]),
    ("\u{1f}", &["\\u001f"]),
    ("\u{7f}", &["\u{7f}"]),
];

/// A string of pieces plus one JSON spelling of it.
fn arb_spelled_string() -> impl Strategy<Value = (String, String)> {
    let spelling = (0..PIECES.len(), 0usize..3);
    proptest::collection::vec(spelling, 0..24).prop_map(|picks| {
        let mut text = String::new();
        let mut json = String::from("\"");
        for (piece, variant) in picks {
            let (raw, spellings) = PIECES[piece];
            text.push_str(raw);
            json.push_str(spellings[variant % spellings.len()]);
        }
        json.push('"');
        (text, json)
    })
}

proptest! {
    #[test]
    fn to_string_then_from_str_is_the_identity_on_strings((text, json) in arb_spelled_string()) {
        let printed = serde_json::to_string(&text).unwrap();
        prop_assert_eq!(serde_json::from_str::<String>(&printed).unwrap(), text.clone());
        prop_assert_eq!(serde_json::from_str::<String>(&json).unwrap(), text.clone());
        // The same string among its neighbours, and as an object key.
        let list: Vec<String> =
            serde_json::from_str(&format!("[{json},{printed},{json}]")).unwrap();
        prop_assert_eq!(list, vec![text.clone(), text.clone(), text.clone()]);
        let map: std::collections::BTreeMap<String, String> =
            serde_json::from_str(&format!("{{{json}:{printed}}}")).unwrap();
        prop_assert_eq!(map.get(&text), Some(&text));
    }
}

#[test]
fn nesting_past_the_depth_cap_is_a_parse_error() {
    let deep = "[".repeat(200_000);
    assert!(serde_json::from_str::<Vec<String>>(&deep).is_err());
    let deep_objects = "{\"k\":".repeat(200_000);
    assert!(serde_json::from_str::<Vec<String>>(&deep_objects).is_err());
}

#[test]
fn a_deeply_nested_jsonl_line_is_a_corrupt_frame_at_its_offset() {
    let dir = unique_temp_dir("jsonl-deep-line");
    let repo = scripted_repository();
    apply_ops(
        &repo,
        &[RepoOp::Contribute {
            title: "Composers".into(),
            discussion: "nested".into(),
        }],
    );
    let mut backend = EventLogBackend::open(&dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();
    let generation = backend.current_generation().to_string();
    let path = dir.join(&generation);
    let mut log = std::fs::read(&path).unwrap();
    let line_at = log.len() as u64;
    log.extend_from_slice("[".repeat(200_000).as_bytes());
    log.push(b'\n');
    std::fs::write(&path, &log).unwrap();

    match EventLogBackend::restore_dir(&dir) {
        Err(RepoError::CorruptFrame {
            segment, offset, ..
        }) => {
            assert_eq!(segment, generation);
            assert_eq!(offset, line_at);
        }
        other => panic!("expected CorruptFrame at byte {line_at}, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deeply_nested_manifest_is_a_persist_error() {
    let dir = unique_temp_dir("manifest-deep");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("checkpoint.json"), "{\"log\":".repeat(200_000)).unwrap();
    match EventLogBackend::read_state_in(&dir) {
        Err(RepoError::Persist(_)) => {}
        other => panic!("expected Persist, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
