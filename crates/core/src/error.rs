//! Error type for the repository.

use std::fmt;

/// Errors raised by repository operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepoError {
    /// The acting account is not registered (the paper's "barrier to
    /// entry": a wiki account is required even to comment).
    UnknownAccount(String),
    /// The account lacks the role the action requires.
    PermissionDenied {
        /// Who attempted the action.
        who: String,
        /// What was attempted.
        action: String,
        /// The role that would be needed.
        needs: String,
    },
    /// No entry with the given identifier.
    UnknownEntry(String),
    /// No such version of the entry.
    UnknownVersion {
        /// The entry.
        entry: String,
        /// The requested version.
        version: String,
    },
    /// An entry with this title already exists.
    DuplicateEntry(String),
    /// The entry failed template validation; all problems listed.
    InvalidEntry(Vec<String>),
    /// An account with this name already exists.
    DuplicateAccount(String),
    /// Wiki markup could not be parsed back into an entry.
    MarkupParse {
        /// Which page.
        page: String,
        /// What went wrong.
        reason: String,
    },
    /// Persistence failure (serialisation or I/O), stringified.
    Persist(String),
    /// An event-log frame failed an integrity check *inside* the log —
    /// real corruption (bit rot, a foreign writer, a short copy), typed
    /// separately from [`RepoError::Persist`] so callers can distinguish
    /// it from plain I/O failure. Raised by the binary log when a frame
    /// header or payload CRC fails, and by the JSONL log when a
    /// newline-terminated line does not parse; `offset` is always the
    /// first byte the reader could not trust, which is exactly where a
    /// `SalvagePrefix` recovery truncates. A torn *tail* (a crash
    /// mid-append) is not corruption and never raises this: readers drop
    /// it and the writer truncates it at open.
    CorruptFrame {
        /// The log file (relative name) holding the bad frame or line.
        segment: String,
        /// Byte offset of the frame (or line) within that file.
        offset: u64,
        /// Which check failed (header, payload CRC, payload decode,
        /// JSONL parse).
        reason: String,
    },
    /// The checkpoint manifest carries a `crc32` that does not match its
    /// body — the manifest parsed as JSON but its contents are not what
    /// the writer checksummed (bit rot, a partial copy, a hand edit).
    /// Manifests written before the checksum existed carry no `crc32`
    /// field and are accepted without this check.
    CorruptManifest {
        /// The event-log directory whose manifest failed the check.
        dir: String,
        /// The checksum stored in the manifest.
        stored: u32,
        /// The checksum computed over the manifest body bytes as read.
        computed: u32,
    },
    /// A replicated source that had been tailed is gone — the whole
    /// directory, or its checkpoint manifest after one had been parsed
    /// (not merely an empty or not-yet-written log). The typed signal a
    /// replica/federation poll surfaces instead of silently adopting an
    /// empty state.
    SourceUnavailable {
        /// The directory being tailed when the source vanished.
        dir: String,
    },
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::UnknownAccount(a) => write!(f, "no registered account `{a}`"),
            RepoError::PermissionDenied { who, action, needs } => {
                write!(f, "`{who}` may not {action} (requires {needs})")
            }
            RepoError::UnknownEntry(e) => write!(f, "no entry `{e}`"),
            RepoError::UnknownVersion { entry, version } => {
                write!(f, "entry `{entry}` has no version {version}")
            }
            RepoError::DuplicateEntry(t) => write!(f, "an entry titled `{t}` already exists"),
            RepoError::InvalidEntry(problems) => {
                write!(
                    f,
                    "entry fails template validation: {}",
                    problems.join("; ")
                )
            }
            RepoError::DuplicateAccount(a) => write!(f, "account `{a}` already exists"),
            RepoError::MarkupParse { page, reason } => {
                write!(f, "cannot parse wiki page `{page}`: {reason}")
            }
            RepoError::Persist(s) => write!(f, "persistence error: {s}"),
            RepoError::CorruptFrame {
                segment,
                offset,
                reason,
            } => {
                write!(
                    f,
                    "corrupt frame in segment `{segment}` at byte {offset}: {reason}"
                )
            }
            RepoError::CorruptManifest {
                dir,
                stored,
                computed,
            } => {
                write!(
                    f,
                    "corrupt checkpoint manifest in `{dir}`: \
                     crc32 mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            RepoError::SourceUnavailable { dir } => {
                write!(
                    f,
                    "replicated source `{dir}` is gone (directory or checkpoint manifest missing)"
                )
            }
        }
    }
}

impl RepoError {
    /// A [`RepoError::Persist`] tagged with the operation that raised it,
    /// so an fsync failure reads differently from a failed open by the
    /// time it surfaces through a pipeline `flush` several layers up.
    pub fn persist_io(op: &str, err: impl fmt::Display) -> RepoError {
        RepoError::Persist(format!("{op}: {err}"))
    }

    /// Is this error *corruption* — bytes on disk failing an integrity
    /// check — as opposed to unavailability or plain I/O failure? Only
    /// corruption is eligible for `RecoveryPolicy::SalvagePrefix`:
    /// it comes with an exact boundary (the frame offset, or the whole
    /// manifest) below which the data is still trustworthy.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            RepoError::CorruptFrame { .. } | RepoError::CorruptManifest { .. }
        )
    }
}

impl std::error::Error for RepoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_display() {
        let cases = vec![
            RepoError::UnknownAccount("a".into()),
            RepoError::PermissionDenied {
                who: "a".into(),
                action: "approve".into(),
                needs: "Reviewer".into(),
            },
            RepoError::UnknownEntry("composers".into()),
            RepoError::UnknownVersion {
                entry: "composers".into(),
                version: "9.9".into(),
            },
            RepoError::DuplicateEntry("COMPOSERS".into()),
            RepoError::InvalidEntry(vec!["missing overview".into()]),
            RepoError::DuplicateAccount("a".into()),
            RepoError::MarkupParse {
                page: "p".into(),
                reason: "r".into(),
            },
            RepoError::Persist("io".into()),
            RepoError::CorruptFrame {
                segment: "events-0.bin.000000".into(),
                offset: 42,
                reason: "payload CRC mismatch".into(),
            },
            RepoError::CorruptManifest {
                dir: "/logs".into(),
                stored: 0xDEAD_BEEF,
                computed: 0x1234_5678,
            },
            RepoError::SourceUnavailable {
                dir: "/gone".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn only_integrity_failures_count_as_corruption() {
        assert!(RepoError::CorruptFrame {
            segment: "events-0.jsonl".into(),
            offset: 0,
            reason: "r".into(),
        }
        .is_corruption());
        assert!(RepoError::CorruptManifest {
            dir: "d".into(),
            stored: 1,
            computed: 2,
        }
        .is_corruption());
        assert!(!RepoError::SourceUnavailable { dir: "d".into() }.is_corruption());
        assert!(!RepoError::Persist("disk on fire".into()).is_corruption());
    }

    #[test]
    fn persist_io_keeps_the_failing_operation() {
        let e = RepoError::persist_io("fsync event log", "No space left on device");
        assert_eq!(
            e.to_string(),
            "persistence error: fsync event log: No space left on device"
        );
    }
}
