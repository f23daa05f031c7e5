//! Fault injection: wrappers that deliberately break one law of an inner
//! bx (testing the law checkers themselves — a checker that cannot catch
//! a planted violation is worse than no checker), plus storage faults
//! that kill a [`StorageBackend`] mid-stream to test durability-pipeline
//! and replica recovery.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use bx_core::repo::RepositorySnapshot;
use bx_core::storage::{StorageBackend, TailRepaired};
use bx_core::{RepoError, RepoEvent};
use bx_theory::Bx;

/// A storage backend that dies after a fuse of `fuse_events` recorded
/// events — the injection used to kill a
/// [`bx_core::pipeline::BackgroundWriter`] mid-stream. The batch that
/// burns the fuse records its durable *prefix* to the inner backend
/// before failing, so recovery faces a cut inside a batch, not a clean
/// batch boundary. Once tripped, every call fails.
///
/// [`CrashingBackend::fail_at_flush`] arms the other fuse instead: every
/// `record` passes through untouched and the crash fires at a
/// `flush_durable` call — i.e. at the fsync point of an open group-commit
/// window, after the window's appends reached the inner backend but
/// before any of them were acknowledged durable.
pub struct CrashingBackend<B> {
    inner: B,
    fuse: usize,
    /// `Some(n)`: the next `n` `flush_durable` calls succeed, the one
    /// after trips the crash.
    flush_fuse: Option<usize>,
    tripped: bool,
}

impl<B: StorageBackend> CrashingBackend<B> {
    /// Wrap `inner`; the crash fires while recording event number
    /// `fuse_events + 1`.
    pub fn new(inner: B, fuse_events: usize) -> CrashingBackend<B> {
        CrashingBackend {
            inner,
            fuse: fuse_events,
            flush_fuse: None,
            tripped: false,
        }
    }

    /// Wrap `inner` with the fsync-point fuse: records pass through
    /// unlimited, the first `fuse_flushes` `flush_durable` calls succeed,
    /// and the next one crashes — killing an open group-commit window at
    /// exactly the moment its staged appends would have become durable.
    pub fn fail_at_flush(inner: B, fuse_flushes: usize) -> CrashingBackend<B> {
        CrashingBackend {
            inner,
            fuse: usize::MAX,
            flush_fuse: Some(fuse_flushes),
            tripped: false,
        }
    }

    /// Has the injected crash fired yet?
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Unwrap the inner backend (e.g. to inspect what survived).
    pub fn into_inner(self) -> B {
        self.inner
    }

    fn dead(&self) -> RepoError {
        RepoError::Persist("injected crash: backend is dead".to_string())
    }
}

impl<B: StorageBackend> StorageBackend for CrashingBackend<B> {
    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        if self.tripped {
            return Err(self.dead());
        }
        if events.len() <= self.fuse {
            self.fuse -= events.len();
            return self.inner.record(events);
        }
        let durable = self.fuse;
        self.fuse = 0;
        self.tripped = true;
        self.inner.record(&events[..durable])?;
        Err(RepoError::Persist(format!(
            "injected crash after {durable} events of a {}-event batch",
            events.len()
        )))
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        if self.tripped {
            return Err(self.dead());
        }
        self.inner.checkpoint(snapshot)
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        self.inner.restore()
    }

    fn flush_durable(&mut self) -> Result<(), RepoError> {
        if self.tripped {
            return Err(self.dead());
        }
        if let Some(remaining) = self.flush_fuse {
            if remaining == 0 {
                self.tripped = true;
                // The staged window dies un-fsynced: the inner backend
                // keeps whatever `record` wrote (a clean suffix of
                // unacknowledged appends), exactly the on-disk shape a
                // power cut at the fsync point can leave.
                return Err(RepoError::Persist(
                    "injected crash at the fsync point of an open group-commit window".to_string(),
                ));
            }
            self.flush_fuse = Some(remaining - 1);
        }
        self.inner.flush_durable()
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        self.inner.tail_repaired()
    }
}

/// A storage backend with a *transient* fault window:
/// [`FlakyBackend::fail_next`] arms the next `n` fallible calls
/// (`record`, `checkpoint`, `flush_durable`) to fail with an injected IO
/// error, after which the backend recovers on its own — the flaky-writer
/// shape (NFS hiccup, disk-full blip, network partition) as opposed to
/// [`CrashingBackend`]'s permanent death. A failed write is dropped
/// whole: nothing reaches the inner backend, so a recovered writer
/// resumes cleanly from the last durable state and its readers see a
/// source that merely stalled.
pub struct FlakyBackend<B> {
    inner: B,
    remaining: usize,
    injected: u64,
}

impl<B: StorageBackend> FlakyBackend<B> {
    /// Wrap `inner`, healthy until the first [`FlakyBackend::fail_next`].
    pub fn new(inner: B) -> FlakyBackend<B> {
        FlakyBackend {
            inner,
            remaining: 0,
            injected: 0,
        }
    }

    /// Arm the fault window: the next `calls` fallible calls fail, then
    /// the backend is healthy again. Re-arming resets the window.
    pub fn fail_next(&mut self, calls: usize) {
        self.remaining = calls;
    }

    /// Fallible calls still doomed to fail.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Total failures injected over this backend's lifetime.
    pub fn failures_injected(&self) -> u64 {
        self.injected
    }

    /// Unwrap the inner backend (e.g. to inspect what survived).
    pub fn into_inner(self) -> B {
        self.inner
    }

    fn trip(&mut self, op: &str) -> Option<RepoError> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.injected += 1;
        Some(RepoError::Persist(format!(
            "injected flaky IO at {op} ({} more to come)",
            self.remaining
        )))
    }
}

impl<B: StorageBackend> StorageBackend for FlakyBackend<B> {
    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        match self.trip("record") {
            Some(err) => Err(err),
            None => self.inner.record(events),
        }
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        match self.trip("checkpoint") {
            Some(err) => Err(err),
            None => self.inner.checkpoint(snapshot),
        }
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        self.inner.restore()
    }

    fn flush_durable(&mut self) -> Result<(), RepoError> {
        match self.trip("flush_durable") {
            Some(err) => Err(err),
            None => self.inner.flush_durable(),
        }
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        self.inner.tail_repaired()
    }
}

/// Rename `dir` aside, simulating a source directory that vanished
/// (unmounted share, deleted replica, network partition). Readers see
/// `SourceUnavailable`; [`restore_dir`] brings it back with its contents
/// intact. Returns the hiding place.
pub fn vanish_dir(dir: &Path) -> std::io::Result<PathBuf> {
    let hidden = dir.with_extension("vanished");
    std::fs::rename(dir, &hidden)?;
    Ok(hidden)
}

/// Undo [`vanish_dir`]: the directory reappears exactly as it was.
pub fn restore_dir(hidden: &Path, dir: &Path) -> std::io::Result<()> {
    std::fs::rename(hidden, dir)
}

/// Append a *complete* (newline-terminated) but unparseable line to
/// `path` — real corruption, as opposed to [`torn_append`]'s benign
/// crash fragment. Readers surface it as a typed `CorruptFrame` whose
/// offset is this line's start — returned here so tests can pin the
/// salvage truncation point.
pub fn corrupt_append(path: &Path) -> std::io::Result<u64> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let offset = file.metadata()?.len();
    let mut file = file;
    file.write_all(b"{ rotted bits, not an event }\n")?;
    Ok(offset)
}

/// The binary-log analogue of [`corrupt_append`]: append a complete
/// frame whose CRC does not match its payload to the generation's live
/// (last) segment in `dir`. Returns the frame's byte offset within that
/// segment.
pub fn corrupt_append_binary(dir: &Path, generation: &str) -> std::io::Result<u64> {
    let segments = bx_core::binlog::segment_files(dir, generation)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let last = segments
        .last()
        .map(|name| dir.join(name))
        .unwrap_or_else(|| dir.join(format!("{generation}.{:06}", 0)));
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(last)?;
    let offset = file.metadata()?.len();
    let mut file = file;
    file.write_all(&bx_core::binlog::corrupt_frame_bytes())?;
    Ok(offset)
}

/// Append a torn half-line (no terminating newline) to `path` — the
/// on-disk shape of a process killed mid-`write(2)`. Pair with
/// [`CrashingBackend`] to simulate the final append being cut short.
pub fn torn_append(path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(b"{\"Commented\":{\"id\":\"torn-mid-wri")
}

/// The binary-log analogue of [`torn_append`]: append a strict prefix of
/// a valid frame to generation's live (last) segment in `dir` — the
/// bytes a crash mid-`write(2)` leaves in the binary format. JSONL torn
/// bytes would read as *corruption* on a binary log (the header check
/// fails), so binary fault plans must tear with a valid frame prefix.
pub fn torn_append_binary(dir: &Path, generation: &str) -> std::io::Result<()> {
    let segments = bx_core::binlog::segment_files(dir, generation)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let last = segments
        .last()
        .map(|name| dir.join(name))
        // An unwritten generation tears at its first segment.
        .unwrap_or_else(|| dir.join(format!("{generation}.{:06}", 0)));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(last)?;
    file.write_all(&bx_core::binlog::torn_frame_bytes())
}

/// Breaks CorrectFwd by corrupting the forward restoration with a caller-
/// supplied perturbation (which must produce an inconsistent `n`).
pub struct BreakCorrectFwd<B, F> {
    inner: B,
    corrupt: F,
    name: String,
}

impl<B, F> BreakCorrectFwd<B, F> {
    /// Wrap `inner`; `corrupt` perturbs every fwd result.
    pub fn new<M, N>(inner: B, corrupt: F) -> Self
    where
        B: Bx<M, N>,
        F: Fn(N) -> N,
    {
        let name = format!("{}+break-correct-fwd", inner.name());
        BreakCorrectFwd {
            inner,
            corrupt,
            name,
        }
    }
}

impl<M, N, B, F> Bx<M, N> for BreakCorrectFwd<B, F>
where
    B: Bx<M, N>,
    F: Fn(N) -> N,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn consistent(&self, m: &M, n: &N) -> bool {
        self.inner.consistent(m, n)
    }

    fn fwd(&self, m: &M, n: &N) -> N {
        (self.corrupt)(self.inner.fwd(m, n))
    }

    fn bwd(&self, m: &M, n: &N) -> M {
        self.inner.bwd(m, n)
    }
}

/// Breaks HippocraticFwd: when the pair is already consistent, the fwd
/// result is perturbed anyway (but kept consistent by using a perturbation
/// that preserves consistency, e.g. reordering a list).
pub struct BreakHippocraticFwd<B, F> {
    inner: B,
    meddle: F,
    name: String,
}

impl<B, F> BreakHippocraticFwd<B, F> {
    /// Wrap `inner`; `meddle` gratuitously rewrites consistent views.
    pub fn new<M, N>(inner: B, meddle: F) -> Self
    where
        B: Bx<M, N>,
        F: Fn(N) -> N,
    {
        let name = format!("{}+break-hippocratic-fwd", inner.name());
        BreakHippocraticFwd {
            inner,
            meddle,
            name,
        }
    }
}

impl<M, N, B, F> Bx<M, N> for BreakHippocraticFwd<B, F>
where
    B: Bx<M, N>,
    F: Fn(N) -> N,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn consistent(&self, m: &M, n: &N) -> bool {
        self.inner.consistent(m, n)
    }

    fn fwd(&self, m: &M, n: &N) -> N {
        if self.inner.consistent(m, n) {
            (self.meddle)(self.inner.fwd(m, n))
        } else {
            self.inner.fwd(m, n)
        }
    }

    fn bwd(&self, m: &M, n: &N) -> M {
        self.inner.bwd(m, n)
    }
}

/// Breaks HippocraticBwd symmetrically.
pub struct BreakHippocraticBwd<B, F> {
    inner: B,
    meddle: F,
    name: String,
}

impl<B, F> BreakHippocraticBwd<B, F> {
    /// Wrap `inner`; `meddle` gratuitously rewrites consistent sources.
    pub fn new<M, N>(inner: B, meddle: F) -> Self
    where
        B: Bx<M, N>,
        F: Fn(M) -> M,
    {
        let name = format!("{}+break-hippocratic-bwd", inner.name());
        BreakHippocraticBwd {
            inner,
            meddle,
            name,
        }
    }
}

impl<M, N, B, F> Bx<M, N> for BreakHippocraticBwd<B, F>
where
    B: Bx<M, N>,
    F: Fn(M) -> M,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn consistent(&self, m: &M, n: &N) -> bool {
        self.inner.consistent(m, n)
    }

    fn fwd(&self, m: &M, n: &N) -> N {
        self.inner.fwd(m, n)
    }

    fn bwd(&self, m: &M, n: &N) -> M {
        if self.inner.consistent(m, n) {
            (self.meddle)(self.inner.bwd(m, n))
        } else {
            self.inner.bwd(m, n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_examples::composers::{composers_bx, Composer, ComposerSet, PairList};
    use bx_theory::{check_law, Law, Samples};

    fn consistent_sample() -> (ComposerSet, PairList) {
        let m: ComposerSet = [
            Composer::new("A", "1-2", "X"),
            Composer::new("B", "3-4", "Y"),
        ]
        .into_iter()
        .collect();
        let n = vec![
            ("A".to_string(), "X".to_string()),
            ("B".to_string(), "Y".to_string()),
        ];
        (m, n)
    }

    #[test]
    fn planted_correctness_fault_is_caught() {
        let (m, n) = consistent_sample();
        let faulty = BreakCorrectFwd::new(composers_bx(), |mut out: PairList| {
            out.push(("Ghost".to_string(), "Nowhere".to_string()));
            out
        });
        let samples = Samples::from_pairs(vec![(m, n)]);
        let report = check_law(&faulty, Law::CorrectFwd, &samples);
        assert!(report.violated(), "{report}");
    }

    #[test]
    fn planted_hippocratic_fwd_fault_is_caught() {
        let (m, n) = consistent_sample();
        // Reversal keeps the pair-set, so the result stays consistent —
        // CorrectFwd survives while HippocraticFwd dies, isolating the law.
        let faulty = BreakHippocraticFwd::new(composers_bx(), |mut out: PairList| {
            out.reverse();
            out
        });
        let samples = Samples::from_pairs(vec![(m, n)]);
        assert!(check_law(&faulty, Law::CorrectFwd, &samples).holds());
        assert!(check_law(&faulty, Law::HippocraticFwd, &samples).violated());
    }

    #[test]
    fn planted_hippocratic_bwd_fault_is_caught() {
        let (m, n) = consistent_sample();
        let faulty = BreakHippocraticBwd::new(composers_bx(), |mut out: ComposerSet| {
            // Replace dates of every composer: pair-set preserved.
            out = out
                .into_iter()
                .map(|c| Composer::new(&c.name, "0-0", &c.nationality))
                .collect();
            out
        });
        let samples = Samples::from_pairs(vec![(m, n)]);
        assert!(check_law(&faulty, Law::CorrectBwd, &samples).holds());
        assert!(check_law(&faulty, Law::HippocraticBwd, &samples).violated());
    }

    #[test]
    fn crashing_backend_records_the_durable_prefix_then_dies() {
        use bx_core::storage::MemoryBackend;
        use bx_core::{Principal, Repository};

        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();
        let events = r.drain_events();
        assert_eq!(events.len(), 3);

        let mut backend = CrashingBackend::new(MemoryBackend::new(), 2);
        assert!(!backend.tripped());
        let err = backend.record(&events).unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("injected crash")));
        assert!(backend.tripped());
        assert!(backend.record(&events).is_err(), "dead stays dead");
        assert!(backend.checkpoint(&r.snapshot()).is_err());
        // The durable prefix survived in the inner backend.
        let restored = backend.restore().unwrap();
        assert_eq!(
            restored,
            bx_core::event::replay(RepositorySnapshot::empty(""), &events[..2])
        );
        assert_eq!(backend.into_inner().pending_events(), 2);
    }

    #[test]
    fn flush_fuse_passes_records_and_dies_at_the_fsync_point() {
        use bx_core::storage::MemoryBackend;
        use bx_core::{Principal, Repository};

        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();
        let events = r.drain_events();

        let mut backend = CrashingBackend::fail_at_flush(MemoryBackend::new(), 1);
        // Window 1: records pass, the first fsync point succeeds.
        backend.record(&events[..2]).unwrap();
        backend.flush_durable().unwrap();
        assert!(!backend.tripped());
        // Window 2: the append lands, the fsync point crashes.
        backend.record(&events[2..]).unwrap();
        let err = backend.flush_durable().unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("fsync point")));
        assert!(backend.tripped());
        assert!(backend.record(&events).is_err(), "dead stays dead");
        assert!(backend.flush_durable().is_err());
        // Everything recorded reached the inner backend as a clean
        // suffix of unacknowledged appends.
        assert_eq!(backend.into_inner().pending_events(), events.len());
    }

    #[test]
    fn flaky_backend_fails_exactly_its_window_then_recovers() {
        use bx_core::storage::MemoryBackend;
        use bx_core::{Principal, Repository};

        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();
        let events = r.drain_events();

        let mut backend = FlakyBackend::new(MemoryBackend::new());
        // Healthy until armed.
        backend.record(&events[..1]).unwrap();
        assert_eq!(backend.failures_injected(), 0);

        backend.fail_next(2);
        assert_eq!(backend.remaining(), 2);
        let err = backend.record(&events[1..]).unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("injected flaky IO")));
        assert!(backend.flush_durable().is_err());
        assert_eq!(backend.remaining(), 0);
        assert_eq!(backend.failures_injected(), 2);

        // Recovered on its own: the retried batch lands whole, and the
        // failed attempts left nothing behind in the inner backend.
        backend.record(&events[1..]).unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        assert_eq!(backend.into_inner().pending_events(), events.len());
    }

    #[test]
    fn corrupt_append_reports_the_exact_truncation_offset() {
        let dir = crate::ops::unique_temp_dir("corrupt-append");
        let path = dir.join("events-0.jsonl");
        std::fs::write(&path, "{\"intact\":1}\n").unwrap();
        let offset = corrupt_append(&path).unwrap();
        assert_eq!(offset, "{\"intact\":1}\n".len() as u64);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "corruption is a complete line");
        assert!(text[offset as usize..].starts_with("{ rotted"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vanish_and_restore_round_trip_a_directory() {
        let dir = crate::ops::unique_temp_dir("vanish");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("marker"), "x").unwrap();
        let hidden = vanish_dir(&dir).unwrap();
        assert!(!dir.exists());
        restore_dir(&hidden, &dir).unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("marker")).unwrap(), "x");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_leaves_an_unterminated_tail() {
        let dir = crate::ops::unique_temp_dir("torn-append");
        let path = dir.join("events-0.jsonl");
        std::fs::write(&path, "{\"intact\":1}\n").unwrap();
        torn_append(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.ends_with('\n'));
        assert!(text.starts_with("{\"intact\":1}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unbroken_inner_bx_still_passes_through_wrappers() {
        // A wrapper with an identity perturbation must not change verdicts.
        let (m, n) = consistent_sample();
        let wrapped = BreakHippocraticFwd::new(composers_bx(), |out: PairList| out);
        let samples = Samples::from_pairs(vec![(m, n)]);
        assert!(check_law(&wrapped, Law::HippocraticFwd, &samples).holds());
    }
}
