//! Per-source supervision for the replicated read tier: circuit-breaker
//! health states, deterministic exponential backoff, and
//! quarantine-and-salvage recovery.
//!
//! A [`crate::replica::Federation`] tails N independent primaries; one
//! sick source must not take down the read path for the other N−1. Each
//! source therefore carries a small state machine:
//!
//! ```text
//!             failure                failure × quarantine_after
//!   Healthy ──────────▶ Degraded{n} ───────────────────────▶ Quarantined
//!      ▲                    │  ▲                                  │
//!      │   success          │  │ failure (n+1, backoff grows)     │
//!      └────────────────────┴──┴──────── success (or salvage) ────┘
//! ```
//!
//! Failures arm a retry deadline computed by [`RetryPolicy`] —
//! exponential backoff with a deterministic, seedable jitter, capped at
//! [`RetryPolicy::max`] — and the federation skips the source until the
//! deadline passes while continuing to poll every healthy peer. A
//! quarantined source whose sticky error is *corruption* (a typed
//! [`RepoError::CorruptFrame`] or [`RepoError::CorruptManifest`]) can
//! opt into [`RecoveryPolicy::SalvagePrefix`]: the log is truncated at
//! the first corrupt byte and reopened, and everything dropped is
//! recorded in a [`SalvageReport`] — recovery is never a silent skip.
//! The default [`RecoveryPolicy::FailStop`] leaves corruption in place
//! for an operator.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::error::RepoError;

/// SplitMix64 — the tiny, well-mixed step function used to derive
/// deterministic jitter. No external RNG crate is needed (or available
/// offline): the schedule must be reproducible anyway, so the "noise"
/// is a pure function of (seed, source, attempt).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the source name, so two sources sharing a seed still get
/// decorrelated jitter (no retry stampede when a shared disk comes back).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Retry schedule for a failing federated source: exponential backoff
/// from [`RetryPolicy::base`], multiplied by [`RetryPolicy::multiplier`]
/// per consecutive failure, capped at [`RetryPolicy::max`], stretched by
/// a deterministic jitter of up to [`RetryPolicy::jitter_percent`] —
/// and a quarantine threshold. The whole schedule is a pure function of
/// `(policy, source name, consecutive failures)`, so tests can pin exact
/// deadlines and a restarted node re-derives the same schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff after the first failure.
    pub base: Duration,
    /// Hard cap on any backoff (jitter included) — this bounds how often
    /// a permanently dead source is polled at all.
    pub max: Duration,
    /// Growth factor per consecutive failure (values < 1 are clamped
    /// to 1, i.e. constant backoff).
    pub multiplier: u32,
    /// Upper bound of the deterministic jitter, as a percentage of the
    /// capped backoff (0 disables jitter entirely).
    pub jitter_percent: u32,
    /// Consecutive failures after which the source is quarantined
    /// (clamped to ≥ 1). Quarantine keeps retrying at the capped
    /// cadence; it is the gate for [`RecoveryPolicy::SalvagePrefix`].
    pub quarantine_after: u32,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(100),
            max: Duration::from_secs(30),
            multiplier: 2,
            jitter_percent: 15,
            quarantine_after: 5,
            seed: 0xB0FF_5EED,
        }
    }
}

impl RetryPolicy {
    /// A zero-backoff policy: every pass retries every source
    /// immediately (quarantine transitions still happen). The shape used
    /// by tests and by deployments that prefer blind interval polling.
    pub fn immediate() -> RetryPolicy {
        RetryPolicy {
            base: Duration::ZERO,
            max: Duration::ZERO,
            multiplier: 1,
            jitter_percent: 0,
            quarantine_after: 5,
            seed: 0,
        }
    }

    /// The backoff armed after failure number `consecutive_failures`
    /// (1-based) of `source`. Deterministic: equal inputs give equal
    /// durations, and the result never exceeds [`RetryPolicy::max`].
    pub fn backoff(&self, source: &str, consecutive_failures: u32) -> Duration {
        if consecutive_failures == 0 {
            return Duration::ZERO;
        }
        let mut raw = self.base;
        if self.multiplier > 1 {
            for _ in 1..consecutive_failures {
                if raw >= self.max {
                    break;
                }
                raw = raw.saturating_mul(self.multiplier);
            }
        }
        let raw = raw.min(self.max);
        if self.jitter_percent == 0 || raw.is_zero() {
            return raw;
        }
        let j = splitmix64(self.seed ^ fnv1a(source.as_bytes()) ^ u64::from(consecutive_failures))
            % (u64::from(self.jitter_percent) + 1);
        let extra = (raw.as_nanos() * u128::from(j) / 100).min(u128::from(u64::MAX));
        (raw + Duration::from_nanos(extra as u64)).min(self.max)
    }
}

/// How a quarantined source with a *corruption* error recovers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Leave the corrupt bytes in place and keep surfacing the typed
    /// error on every (backed-off) retry — an operator decides.
    #[default]
    FailStop,
    /// Truncate the source's log at the first corrupt byte (the offset
    /// the scanner reported), set a corrupt checkpoint manifest aside,
    /// and reopen — recording exactly what was dropped in a
    /// [`SalvageReport`]. Opt-in: salvage discards the corrupt suffix.
    SalvagePrefix,
}

/// One source's position in the supervision state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SourceHealth {
    /// Last poll succeeded; polled every pass.
    #[default]
    Healthy,
    /// Recent consecutive failures below the quarantine threshold;
    /// retried after an exponential-backoff deadline.
    Degraded {
        /// Consecutive failures so far.
        consecutive_failures: u32,
    },
    /// At or past [`RetryPolicy::quarantine_after`] consecutive
    /// failures; retried at the capped cadence, and eligible for
    /// [`RecoveryPolicy::SalvagePrefix`] if the error is corruption.
    Quarantined,
}

impl SourceHealth {
    /// Lower-case label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            SourceHealth::Healthy => "healthy",
            SourceHealth::Degraded { .. } => "degraded",
            SourceHealth::Quarantined => "quarantined",
        }
    }
}

/// Exactly what a [`RecoveryPolicy::SalvagePrefix`] recovery dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// The source directory salvaged.
    pub dir: String,
    /// The file acted on (relative name): the corrupt segment or log
    /// file that was truncated, or `checkpoint.json` when the manifest
    /// itself was corrupt (set aside as `checkpoint.json.corrupt`, not
    /// truncated — its embedded base state cannot be trusted).
    pub file: String,
    /// Byte offset the file was truncated at (`None` when the whole
    /// file was set aside instead).
    pub truncated_at: Option<u64>,
    /// Total bytes dropped: the truncated suffix plus every removed
    /// later segment (and the manifest, when it was the casualty).
    pub bytes_dropped: u64,
    /// Later segment files of the same generation removed outright (a
    /// prefix salvage cannot keep frames beyond the corrupt one).
    pub files_removed: Vec<String>,
}

/// A point-in-time snapshot of one source's supervision state, exposed
/// via `Federation::source_status` (a `ReplicaDaemon`'s through
/// `ReplicaDaemon::with_federation`) — the staleness metadata the read
/// tier serves alongside degraded data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceStatus {
    /// Current position in the state machine.
    pub health: SourceHealth,
    /// Consecutive failures (0 when healthy).
    pub consecutive_failures: u32,
    /// Polls actually attempted (skipped passes do not count).
    pub polls_attempted: u64,
    /// Total failed polls over the source's lifetime.
    pub failures: u64,
    /// The latest poll error while the source is unhealthy.
    pub last_error: Option<RepoError>,
    /// Time until the next retry is due (`None`: polled next pass).
    pub retry_in: Option<Duration>,
    /// Time since the last *successful* poll (`None`: never succeeded).
    /// For a sick source this is how stale its contribution to the
    /// merged state is.
    pub staleness: Option<Duration>,
    /// The most recent salvage performed on this source, if any.
    pub salvage: Option<SalvageReport>,
}

/// The per-source state machine the federation drives. Internal: the
/// public views are [`SourceStatus`] and the `HealthReport::Source`
/// variant.
#[derive(Debug, Default)]
pub(crate) struct SourceSupervisor {
    health: SourceHealth,
    consecutive: u32,
    attempts: u64,
    failures: u64,
    last_error: Option<RepoError>,
    last_ok: Option<Instant>,
    next_retry: Option<Instant>,
    salvage: Option<SalvageReport>,
}

impl SourceSupervisor {
    pub(crate) fn health(&self) -> SourceHealth {
        self.health
    }

    pub(crate) fn last_error(&self) -> Option<&RepoError> {
        self.last_error.as_ref()
    }

    /// Is this source due for a poll at `now`?
    pub(crate) fn should_poll(&self, now: Instant) -> bool {
        self.next_retry.is_none_or(|deadline| now >= deadline)
    }

    /// When the next retry is due, as seen from `now`.
    pub(crate) fn retry_in(&self, now: Instant) -> Option<Duration> {
        self.next_retry
            .map(|deadline| deadline.saturating_duration_since(now))
    }

    /// Clear the retry deadline so the next pass polls regardless of
    /// backoff (an operator repaired the source and wants it now).
    pub(crate) fn force_retry(&mut self) {
        self.next_retry = None;
    }

    /// A poll succeeded. Returns whether this was a *recovery* (the
    /// source was degraded or quarantined).
    pub(crate) fn record_success(&mut self, now: Instant) -> bool {
        self.attempts += 1;
        let recovered = self.health != SourceHealth::Healthy;
        self.health = SourceHealth::Healthy;
        self.consecutive = 0;
        self.next_retry = None;
        self.last_error = None;
        self.last_ok = Some(now);
        recovered
    }

    /// A poll failed: advance the state machine and arm the next retry
    /// deadline per `policy`. Returns the new health.
    pub(crate) fn record_failure(
        &mut self,
        policy: &RetryPolicy,
        source: &str,
        err: RepoError,
        now: Instant,
    ) -> SourceHealth {
        self.attempts += 1;
        self.failures += 1;
        self.consecutive = self.consecutive.saturating_add(1);
        self.health = if self.consecutive >= policy.quarantine_after.max(1) {
            SourceHealth::Quarantined
        } else {
            SourceHealth::Degraded {
                consecutive_failures: self.consecutive,
            }
        };
        self.next_retry = Some(now + policy.backoff(source, self.consecutive));
        self.last_error = Some(err);
        self.health
    }

    /// Record a completed salvage (the follow-up poll decides health).
    pub(crate) fn note_salvage(&mut self, report: SalvageReport) {
        self.salvage = Some(report);
    }

    pub(crate) fn status(&self, now: Instant) -> SourceStatus {
        SourceStatus {
            health: self.health,
            consecutive_failures: self.consecutive,
            polls_attempted: self.attempts,
            failures: self.failures,
            last_error: self.last_error.clone(),
            retry_in: self.retry_in(now),
            staleness: self.last_ok.map(|t| now.saturating_duration_since(t)),
            salvage: self.salvage.clone(),
        }
    }
}

/// Can [`RecoveryPolicy::SalvagePrefix`] act on this error?
pub(crate) fn is_salvageable(err: &RepoError) -> bool {
    err.is_corruption()
}

/// Perform a prefix salvage on `dir` for the corruption `err` reported
/// from it, without reading (or trusting) any of the corrupt bytes:
///
/// * [`RepoError::CorruptFrame`] — truncate the named file at the
///   reported offset (the scanner's first corrupt byte; for a JSONL log
///   the start of the first corrupt line) and remove any later segments
///   of the same generation — frames beyond a corrupt one cannot be
///   trusted to start on a real boundary.
/// * [`RepoError::CorruptManifest`] — set `checkpoint.json` aside as
///   `checkpoint.json.corrupt`. Its embedded base state fails its own
///   checksum, so the directory falls back to whatever generation logs
///   remain on disk (after compaction pruning that may be nothing — the
///   report says exactly how many bytes of manifest were dropped).
///
/// A salvage that removed or renamed an entry fsyncs the directory
/// before it returns, so a power loss cannot bring a removed segment
/// back behind the truncated one.
///
/// Anything else is not salvage material and returns an error.
pub(crate) fn salvage_prefix(dir: &Path, err: &RepoError) -> Result<SalvageReport, RepoError> {
    let io = |e: std::io::Error| RepoError::persist_io("salvage", e);
    match err {
        RepoError::CorruptFrame {
            segment, offset, ..
        } => {
            let path = dir.join(segment);
            let len = std::fs::metadata(&path).map_err(io)?.len();
            let cut = (*offset).min(len);
            let mut bytes_dropped = len - cut;
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(io)?;
            file.set_len(cut).map_err(io)?;
            file.sync_all().map_err(io)?;
            // Records after a corrupt one cannot be trusted to start on a
            // real boundary: later files of the generation go too.
            let mut files_removed = Vec::new();
            let generation = crate::binlog::generation_of(segment);
            for later in crate::binlog::segment_files(dir, generation)?
                .into_iter()
                .filter(|name| name.as_str() > segment.as_str())
            {
                let path = dir.join(&later);
                bytes_dropped += std::fs::metadata(&path).map_err(io)?.len();
                std::fs::remove_file(&path).map_err(io)?;
                files_removed.push(later);
            }
            if !files_removed.is_empty() {
                crate::storage::sync_dir(dir).map_err(io)?;
            }
            Ok(SalvageReport {
                dir: dir.display().to_string(),
                file: segment.clone(),
                truncated_at: Some(cut),
                bytes_dropped,
                files_removed,
            })
        }
        RepoError::CorruptManifest { .. } => {
            let manifest = dir.join("checkpoint.json");
            let bytes_dropped = std::fs::metadata(&manifest).map_err(io)?.len();
            let aside = dir.join("checkpoint.json.corrupt");
            std::fs::remove_file(&aside).ok();
            std::fs::rename(&manifest, &aside).map_err(io)?;
            crate::storage::sync_dir(dir).map_err(io)?;
            Ok(SalvageReport {
                dir: dir.display().to_string(),
                file: "checkpoint.json".to_string(),
                truncated_at: None,
                bytes_dropped,
                files_removed: Vec::new(),
            })
        }
        other => Err(RepoError::Persist(format!(
            "source error is not salvageable (only corruption is): {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With jitter off, the schedule is the textbook doubling ladder,
    /// capped — pinned exactly.
    #[test]
    fn backoff_schedule_without_jitter_is_the_exact_ladder() {
        let policy = RetryPolicy {
            base: Duration::from_millis(100),
            max: Duration::from_secs(1),
            multiplier: 2,
            jitter_percent: 0,
            quarantine_after: 3,
            seed: 7,
        };
        let expected = [100u64, 200, 400, 800, 1000, 1000, 1000];
        for (i, ms) in expected.iter().enumerate() {
            assert_eq!(
                policy.backoff("s", i as u32 + 1),
                Duration::from_millis(*ms),
                "failure #{}",
                i + 1
            );
        }
        assert_eq!(policy.backoff("s", 0), Duration::ZERO);
        // A huge failure count must terminate promptly and stay capped.
        assert_eq!(policy.backoff("s", u32::MAX), Duration::from_secs(1));
    }

    /// Jitter is deterministic (same policy, source and attempt give
    /// the same deadline), bounded by `jitter_percent`, and never
    /// exceeds the cap.
    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            base: Duration::from_millis(100),
            max: Duration::from_secs(60),
            multiplier: 2,
            jitter_percent: 50,
            quarantine_after: 3,
            seed: 0xFEED,
        };
        for attempt in 1..=10u32 {
            let d = policy.backoff("alpha", attempt);
            assert_eq!(d, policy.backoff("alpha", attempt), "deterministic");
            let raw = Duration::from_millis(100u64 << (attempt - 1)).min(policy.max);
            assert!(d >= raw, "jitter only stretches: {d:?} < {raw:?}");
            assert!(
                d <= (raw + raw / 2).min(policy.max),
                "jitter bounded by 50%: {d:?} vs raw {raw:?}"
            );
        }
    }

    /// Seeds and source names decorrelate the schedules (no stampede).
    #[test]
    fn jitter_varies_by_seed_and_source() {
        let a = RetryPolicy {
            jitter_percent: 50,
            seed: 1,
            ..RetryPolicy::default()
        };
        let b = RetryPolicy { seed: 2, ..a };
        assert!(
            (1..=10u32).any(|n| a.backoff("s", n) != b.backoff("s", n)),
            "different seeds must perturb the schedule somewhere"
        );
        assert!(
            (1..=10u32).any(|n| a.backoff("s1", n) != a.backoff("s2", n)),
            "different sources must perturb the schedule somewhere"
        );
    }

    #[test]
    fn multiplier_below_two_gives_constant_backoff_and_terminates() {
        let policy = RetryPolicy {
            base: Duration::from_millis(250),
            max: Duration::from_secs(10),
            multiplier: 1,
            jitter_percent: 0,
            quarantine_after: 2,
            seed: 0,
        };
        // Large counts must not loop for u32::MAX iterations.
        assert_eq!(policy.backoff("s", u32::MAX), Duration::from_millis(250));
        let zero = RetryPolicy {
            multiplier: 0,
            ..policy
        };
        assert_eq!(zero.backoff("s", 5), Duration::from_millis(250));
    }

    #[test]
    fn supervisor_walks_healthy_degraded_quarantined_and_back() {
        let policy = RetryPolicy {
            quarantine_after: 3,
            ..RetryPolicy::immediate()
        };
        let mut sup = SourceSupervisor::default();
        let now = Instant::now();
        assert_eq!(sup.health(), SourceHealth::Healthy);
        assert!(sup.should_poll(now));

        let err = RepoError::SourceUnavailable { dir: "x".into() };
        assert_eq!(
            sup.record_failure(&policy, "s", err.clone(), now),
            SourceHealth::Degraded {
                consecutive_failures: 1
            }
        );
        assert_eq!(
            sup.record_failure(&policy, "s", err.clone(), now),
            SourceHealth::Degraded {
                consecutive_failures: 2
            }
        );
        assert_eq!(
            sup.record_failure(&policy, "s", err.clone(), now),
            SourceHealth::Quarantined
        );
        // Zero backoff: still due immediately, state machine intact.
        assert!(sup.should_poll(now));
        let status = sup.status(now);
        assert_eq!(status.consecutive_failures, 3);
        assert_eq!(status.failures, 3);
        assert_eq!(status.last_error, Some(err));
        assert_eq!(status.staleness, None, "never succeeded yet");

        assert!(sup.record_success(now), "success after sickness recovers");
        assert_eq!(sup.health(), SourceHealth::Healthy);
        assert_eq!(sup.status(now).consecutive_failures, 0);
        assert_eq!(sup.status(now).last_error, None);
        assert_eq!(sup.status(now).staleness, Some(Duration::ZERO));
        assert!(
            !sup.record_success(now),
            "healthy success is not a recovery"
        );
    }

    #[test]
    fn backoff_deadline_gates_polls_until_it_passes() {
        let policy = RetryPolicy {
            base: Duration::from_secs(3600),
            max: Duration::from_secs(3600),
            multiplier: 2,
            jitter_percent: 0,
            quarantine_after: 5,
            seed: 0,
        };
        let mut sup = SourceSupervisor::default();
        let now = Instant::now();
        sup.record_failure(
            &policy,
            "s",
            RepoError::SourceUnavailable { dir: "x".into() },
            now,
        );
        assert!(!sup.should_poll(now), "an hour of backoff gates the poll");
        assert_eq!(sup.retry_in(now), Some(Duration::from_secs(3600)));
        assert!(sup.should_poll(now + Duration::from_secs(3601)));
        sup.force_retry();
        assert!(sup.should_poll(now), "force_retry clears the deadline");
    }

    #[test]
    fn only_corruption_is_salvageable() {
        assert!(is_salvageable(&RepoError::CorruptFrame {
            segment: "events-0.jsonl".into(),
            offset: 10,
            reason: "r".into(),
        }));
        assert!(is_salvageable(&RepoError::CorruptManifest {
            dir: "d".into(),
            stored: 1,
            computed: 2,
        }));
        assert!(!is_salvageable(&RepoError::SourceUnavailable {
            dir: "d".into()
        }));
        let dir = crate::test_support::unique_dir("no-salvage");
        std::fs::create_dir_all(&dir).unwrap();
        let err = salvage_prefix(&dir, &RepoError::Persist("io".into())).unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("not salvageable")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvage_truncates_a_jsonl_log_at_the_corrupt_offset() {
        let dir = crate::test_support::unique_dir("salvage-jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let good = b"{\"a\":1}\n";
        let bad = b"NOT JSON AT ALL\n{\"after\":2}\n";
        let path = dir.join("events-0.jsonl");
        let mut contents = good.to_vec();
        contents.extend_from_slice(bad);
        std::fs::write(&path, &contents).unwrap();

        let report = salvage_prefix(
            &dir,
            &RepoError::CorruptFrame {
                segment: "events-0.jsonl".into(),
                offset: good.len() as u64,
                reason: "corrupt event log line".into(),
            },
        )
        .unwrap();
        assert_eq!(report.file, "events-0.jsonl");
        assert_eq!(report.truncated_at, Some(good.len() as u64));
        assert_eq!(report.bytes_dropped, bad.len() as u64);
        assert!(report.files_removed.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), good);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvage_sets_a_corrupt_manifest_aside() {
        let dir = crate::test_support::unique_dir("salvage-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("checkpoint.json"), b"{garbled}").unwrap();
        let report = salvage_prefix(
            &dir,
            &RepoError::CorruptManifest {
                dir: dir.display().to_string(),
                stored: 1,
                computed: 2,
            },
        )
        .unwrap();
        assert_eq!(report.file, "checkpoint.json");
        assert_eq!(report.truncated_at, None);
        assert_eq!(report.bytes_dropped, 9);
        assert!(!dir.join("checkpoint.json").exists());
        assert!(dir.join("checkpoint.json.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Removing later segments or setting the manifest aside changes the
    /// directory, so the salvage fsyncs it once; a truncation alone
    /// changes no entry and syncs none.
    #[test]
    fn salvage_fsyncs_the_directory_only_when_it_changes_an_entry() {
        use crate::storage::dirs_synced;
        let synced = |dir: &Path, err: RepoError| {
            let before = dirs_synced();
            salvage_prefix(dir, &err).unwrap();
            dirs_synced() - before
        };
        let corrupt = |segment: &str| RepoError::CorruptFrame {
            segment: segment.into(),
            offset: 4,
            reason: "r".into(),
        };

        let binary = crate::test_support::unique_dir("salvage-sync-bin");
        std::fs::create_dir_all(&binary).unwrap();
        for i in 0..3 {
            std::fs::write(binary.join(format!("events-0.bin.{i:06}")), [0u8; 16]).unwrap();
        }
        assert_eq!(synced(&binary, corrupt("events-0.bin.000000")), 1);
        assert_eq!(
            crate::binlog::segment_files(&binary, "events-0.bin").unwrap(),
            ["events-0.bin.000000"]
        );

        let manifest = crate::test_support::unique_dir("salvage-sync-manifest");
        std::fs::create_dir_all(&manifest).unwrap();
        std::fs::write(manifest.join("checkpoint.json"), b"{garbled}").unwrap();
        let err = RepoError::CorruptManifest {
            dir: manifest.display().to_string(),
            stored: 1,
            computed: 2,
        };
        assert_eq!(synced(&manifest, err), 1);

        let jsonl = crate::test_support::unique_dir("salvage-sync-jsonl");
        std::fs::create_dir_all(&jsonl).unwrap();
        std::fs::write(jsonl.join("events-0.jsonl"), b"{}\nNOT JSON\n").unwrap();
        assert_eq!(synced(&jsonl, corrupt("events-0.jsonl")), 0);

        for dir in [binary, manifest, jsonl] {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
