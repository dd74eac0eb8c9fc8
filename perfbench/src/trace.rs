//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each public call
//! into the program (parse, serve, run, render, fingerprint).  The phase
//! durations the program reports in its `RunOutcome` (strong simulation,
//! sampler preparation, sampling) become *derived* child spans of the serve
//! span, laid back to back so the last one ends where the serve call ended;
//! the serve span's self time is then the service overhead around them.
//! Spans stay in memory and are written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `circuit.parse` or `dd.simulate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Request the span belongs to (shared by every span of one request).
    pub request: u64,
    /// Client thread that recorded it.
    pub client: usize,
    /// True when the interval was placed from a duration the program
    /// reported rather than timed by the benchmark.
    pub derived: bool,
}

impl Span {
    /// The span's length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

/// A per-client span recorder; off until [`Tracer::set_enabled`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    client: usize,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant, client: usize) -> Self {
        Self {
            enabled: false,
            origin,
            client,
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (between requests).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
            client: self.client,
            derived: false,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id.0 {
            self.spans[index].end_ns = self.now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(index), "spans must close innermost first");
        }
    }

    /// Adds children to the closed span `id` from durations the program
    /// reported, laid back to back so the last part ends where `id` ended.
    /// Zero durations are skipped; parts that would start before the parent
    /// are clipped to it.
    pub fn derived_children(&mut self, id: SpanId, parts: &[(&'static str, Duration)]) {
        let Some(parent) = id.0 else { return };
        let (parent_start, mut cursor) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for &(name, duration) in parts.iter().rev() {
            if duration.is_zero() {
                continue;
            }
            let nanos = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
            let start_ns = cursor.saturating_sub(nanos).max(parent_start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: cursor,
                parent: Some(parent),
                request: self.request,
                client: self.client,
                derived: true,
            });
            cursor = start_ns;
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-client span lists, rebasing parent indices.
#[must_use]
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    all
}

/// Self time of every span: its duration minus the time its children
/// cover (children of one span never overlap: each client is one thread).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration_ns() as i64;
        }
    }
    own
}

/// Checks the span tree: every child lies inside its parent, parents come
/// before children, children of one parent do not overlap, and every self
/// time is non-negative.
///
/// # Errors
///
/// Describes the first violation.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<Option<(u64, u64)>> = vec![None; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", span.name));
        }
        if let Some(p) = span.parent {
            if p >= spans.len() {
                return Err(format!("span {i} ({}) has a dangling parent", span.name));
            }
            let parent = &spans[p];
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) lies outside its parent {p} ({})",
                    span.name, parent.name
                ));
            }
            if span.request != parent.request || span.client != parent.client {
                return Err(format!("span {i} ({}) crosses requests", span.name));
            }
            if let Some((start, end)) = last_child_end[p] {
                let disjoint = span.end_ns <= start || span.start_ns >= end;
                if !disjoint {
                    return Err(format!("span {i} ({}) overlaps a sibling", span.name));
                }
            }
            last_child_end[p] = Some((span.start_ns, span.end_ns));
        }
    }
    if let Some((i, t)) = self_times_ns(spans)
        .iter()
        .enumerate()
        .find(|(_, &t)| t < 0)
    {
        return Err(format!(
            "span {i} ({}) has negative self time {t}",
            spans[i].name
        ));
    }
    Ok(())
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Any I/O error creating or writing `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"client\":{},\"derived\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request, s.client, s.derived
        )?;
    }
    out.flush()
}
