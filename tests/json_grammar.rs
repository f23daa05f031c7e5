//! The JSON reader accepts only what the JSON grammar allows: no leading
//! zeros, no `.` or exponent without digits, and no raw control
//! characters inside strings. Each rejection holds for a bare value and
//! inside a JSONL event line, where it makes the line a typed
//! `CorruptFrame` at its offset instead of an event read back from text
//! the writer never produces.

use bx::core::storage::{EventLogBackend, StorageBackend};
use bx::core::RepoError;
use bx_testkit::ops::{apply_ops, scripted_repository, unique_temp_dir, RepoOp};

/// Number texts the grammar forbids, each with a well-formed neighbour
/// the reader must still accept.
const BAD_NUMBERS: [(&str, &str); 6] = [
    ("0123", "123"),
    ("-01", "-1"),
    ("01.5", "0.5"),
    ("1.", "1.0"),
    ("1e", "1e0"),
    ("-2E+", "-2E+1"),
];

/// Raw U+0000–U+001F inside a string, each beside its escaped form.
const BAD_STRINGS: [(&str, &str); 3] = [
    ("\"a\u{0}b\"", "\"a\\u0000b\""),
    ("\"tab\there\"", "\"tab\\there\""),
    ("\"line\nbreak\"", "\"line\\nbreak\""),
];

#[test]
fn numbers_outside_the_grammar_are_parse_errors() {
    for (bad, good) in BAD_NUMBERS {
        assert!(
            serde_json::from_str::<f64>(bad).is_err(),
            "{bad:?} parsed as a number"
        );
        assert!(
            serde_json::from_str::<Vec<f64>>(&format!("[{bad}]")).is_err(),
            "[{bad}] parsed"
        );
        assert!(
            serde_json::from_str::<f64>(good).is_ok(),
            "{good:?} was refused"
        );
    }
    assert_eq!(serde_json::from_str::<u64>("0").unwrap(), 0);
    assert_eq!(serde_json::from_str::<i64>("-0").unwrap(), 0);
    assert_eq!(serde_json::from_str::<f64>("-0.25e+2").unwrap(), -25.0);
    assert!(serde_json::from_str::<i64>("-").is_err());
}

#[test]
fn raw_control_characters_in_strings_are_parse_errors() {
    for (bad, good) in BAD_STRINGS {
        assert!(
            serde_json::from_str::<String>(bad).is_err(),
            "{bad:?} parsed as a string"
        );
        assert!(
            serde_json::from_str::<String>(good).is_ok(),
            "{good:?} was refused"
        );
    }
    // Every control character the writer emits comes back escaped.
    let controls: String = (0u8..0x20).map(char::from).collect();
    let json = serde_json::to_string(&controls).unwrap();
    assert!(json.bytes().all(|b| b >= 0x20), "{json:?}");
    assert_eq!(serde_json::from_str::<String>(&json).unwrap(), controls);
}

/// Write a one-event JSONL log, then append a copy of its event line
/// with `field` spliced into the event's payload object. The payload's
/// deserializer ignores fields it does not know, so the copy reads back
/// exactly when the reader accepts `field`'s value. Returns the log
/// directory, the generation file's name and the copy's byte offset.
fn log_with_spliced_line(tag: &str, field: &str) -> (std::path::PathBuf, String, u64) {
    let dir = unique_temp_dir(tag);
    let repo = scripted_repository();
    apply_ops(
        &repo,
        &[RepoOp::Contribute {
            title: "Composers".into(),
            discussion: "grammar".into(),
        }],
    );
    let mut backend = EventLogBackend::open(&dir).unwrap();
    backend.record(&repo.drain_events()).unwrap();
    let generation = backend.current_generation().to_string();
    drop(backend);
    let path = dir.join(&generation);
    let mut log = std::fs::read_to_string(&path).unwrap();
    let line = log.lines().last().unwrap().to_string();
    // `{"Variant":{...}}`: the payload object opens at the second `{`.
    let payload = line.match_indices('{').nth(1).expect("newtype payload").0 + 1;
    let spliced = format!("{}\"zz\":{field},{}\n", &line[..payload], &line[payload..]);
    let line_at = log.len() as u64;
    log.push_str(&spliced);
    std::fs::write(&path, log).unwrap();
    (dir, generation, line_at)
}

/// The spliced line's well-formed control reads back as one more event;
/// the malformed one is a `CorruptFrame` at the line's offset.
fn assert_line_is_corrupt(tag: &str, bad: &str, good: &str) {
    let (dir, generation, _) = log_with_spliced_line(tag, good);
    let events = EventLogBackend::read_generation_events(&dir, &generation)
        .unwrap_or_else(|e| panic!("control {good:?} refused: {e:?}"));
    let lines = std::fs::read_to_string(dir.join(&generation))
        .unwrap()
        .lines()
        .count();
    assert_eq!(events.len(), lines, "control {good:?}");
    std::fs::remove_dir_all(&dir).ok();

    let (dir, generation, line_at) = log_with_spliced_line(tag, bad);
    match EventLogBackend::restore_dir(&dir) {
        Err(RepoError::CorruptFrame {
            segment, offset, ..
        }) => {
            assert_eq!(segment, generation, "{bad:?}");
            assert_eq!(offset, line_at, "{bad:?}");
        }
        other => panic!("{bad:?}: expected CorruptFrame at byte {line_at}, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_jsonl_line_with_a_malformed_number_is_a_corrupt_frame_at_its_offset() {
    for (bad, good) in BAD_NUMBERS {
        assert_line_is_corrupt("json-grammar-number", bad, good);
    }
}

#[test]
fn a_jsonl_line_with_a_raw_control_character_is_a_corrupt_frame_at_its_offset() {
    for (bad, good) in BAD_STRINGS {
        // A raw newline would split the line instead; the frame check
        // for that is the JSONL framing's, not the string grammar's.
        if bad.contains('\n') {
            continue;
        }
        assert_line_is_corrupt("json-grammar-control", bad, good);
    }
}
