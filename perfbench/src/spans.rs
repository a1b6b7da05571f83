//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is named `<layer>.<call>`; it carries its start and end (ns
//! since the recorder was made), the span that caused it, and the
//! interval or request id it served. Nothing is recorded when tracing is
//! off: every call then costs one branch. Spans are written out once, at
//! the end of the run.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Interval or request id, when the call served one.
    pub id: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder. Single-threaded: every span of a run is opened on
/// the thread that drives the workload.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn enter(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        id: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        Some(spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&self, span: Option<SpanId>) {
        if let Some(i) = span {
            let end = self.now_ns();
            self.spans.borrow_mut()[i].end_ns = end;
        }
    }

    /// Run `f` inside a span, handing it the span's id as parent for the
    /// spans it opens.
    pub fn in_span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        id: Option<u64>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let span = self.enter(name, parent, id);
        let out = f(span);
        self.exit(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children may nest or overlap each other (calls made
/// from several threads); the covered part is their union, clipped to
/// the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Self time (s) summed per layer, in first-seen order.
pub fn layer_self_s(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let secs = own as f64 * 1e-9;
        match out.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, total)) => *total += secs,
            None => out.push((s.layer(), secs)),
        }
    }
    out
}

/// Write the spans as JSON lines, one span per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let id = s.id.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            w,
            "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"id\":{id}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
