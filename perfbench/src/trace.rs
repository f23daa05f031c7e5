//! Tracing from outside the program: spans around calls into each layer's
//! public functions, and a recording `EventSink` that captures what a
//! catch-up pass applied so it can be replayed layer by layer later.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bx_core::event::{EventSink, RepoEvent};
use bx_core::repo::RepositorySnapshot;

/// One timed call: `name` is the layer metric's name.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by every span of one client operation.
    pub op: u64,
}

/// Times calls; records a span for each while enabled. Timing happens
/// either way, so traced and untraced runs share one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new client operation; later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f`, returning its result and duration, as a span named
    /// `name` nested under the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed());
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[index].end_ns = self.ns(end);
        (out, end - start)
    }

    /// Record an already-measured interval (replayed layers) as a root
    /// span of operation `op`.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: None,
                op,
            };
            self.spans.push(span);
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Each span name's total self time in µs: duration minus the time
    /// its child spans cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_default() += own as f64 / 1e3;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op
            )?;
        }
        out.flush()
    }
}

/// What a subscribed [`Recorder`] saw, in delivery order. Events are
/// stored inline: they outnumber re-bases by far.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Captured {
    Rebased(RepositorySnapshot),
    Event(RepoEvent),
}

/// A recording sink: every delivered event and re-base, kept until
/// taken.
#[derive(Debug, Default)]
pub struct Recorder {
    seen: Mutex<Vec<Captured>>,
}

impl Recorder {
    pub fn take(&self) -> Vec<Captured> {
        std::mem::take(&mut *self.seen.lock().expect("recorder lock is never poisoned"))
    }
}

impl EventSink for Recorder {
    fn accept(&self, event: &RepoEvent) {
        let mut seen = self.seen.lock().expect("recorder lock is never poisoned");
        seen.push(Captured::Event(event.clone()));
    }

    fn rebased(&self, base: &RepositorySnapshot) {
        let mut seen = self.seen.lock().expect("recorder lock is never poisoned");
        seen.push(Captured::Rebased(base.clone()));
    }
}
