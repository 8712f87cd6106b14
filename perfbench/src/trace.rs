//! In-memory spans around the benchmark's calls into the library.
//!
//! A span records a name, start and end (nanoseconds since the tracer was
//! created), the span that caused it and the request it belongs to.  Spans
//! stay in memory and are written as JSON lines when the run ends, so the
//! measured calls pay one vector push each.  Untraced runs pass no tracer:
//! [`timed`] then costs one branch.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the run (1-based).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request the span belongs to.
    pub request: Option<usize>,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder shared by the run's threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent's span is closed.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// A copy of every span recorded so far, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }

    /// Sum of the durations of every span called `name`, in seconds.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Number of spans called `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.request.map(|r| r as u64)),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, timing it, and records a span when a tracer is given.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    if let Some(tracer) = tracer {
        let id = tracer.reserve();
        tracer.record(id, name, parent, request, start, end);
    }
    (value, end - start)
}
