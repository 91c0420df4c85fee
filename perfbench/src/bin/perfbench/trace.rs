//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and end in nanoseconds
//! since the tracer was made, the span that was open when it began, the
//! id of the operation it belongs to, and the work it covered (nonzeros,
//! elements or requests). Spans stay in memory and are written out once,
//! when the run ends. With tracing off nothing is recorded and no clock
//! is read.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use nmpic_bench::timing::Stopwatch;

/// Handle of an open span (or of nothing, when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    work: u64,
}

/// Span recorder; one per run, owned by the thread that calls the
/// library.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
            work: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span, recording the work it covered.
    pub fn close(&mut self, id: SpanId, work: u64) {
        let Some(id) = id.0 else { return };
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.work = work;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Records an already-measured interval as a closed root span.
    pub fn record(&mut self, name: &str, op: u64, start_ns: u64, end_ns: u64, work: u64) {
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent: None,
                op,
                work,
            });
        }
    }

    /// Nanoseconds since the tracer was made (for [`Tracer::record`]).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Total duration and total work of every span named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, w), s| {
                (d + s.end_ns.saturating_sub(s.start_ns), w + s.work)
            })
    }

    /// Nanoseconds per unit of work over every span named `name`
    /// (0 when no such span covered any work).
    pub fn ns_per_work(&self, name: &str) -> f64 {
        let (ns, work) = self.totals(name);
        if work == 0 {
            0.0
        } else {
            ns as f64 / work as f64
        }
    }

    /// Writes every span as JSON lines under `dir`, plus a per-name
    /// summary with self time (duration minus the time covered by child
    /// spans).
    pub fn write(&self, dir: &Path, file: &str) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = String::new();
        let mut summary: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.work
            );
            let e = summary.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
            e.3 += s.work;
        }
        for (name, (n, total, own, work)) in &summary {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"spans\":{n},\"total_ns\":{total},\"self_ns\":{own},\"work\":{work}}}"
            );
        }
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(file), out)
    }
}
