//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with the span that caused it as parent;
//! spans of one pipeline iteration share a trace id. Spans are kept in
//! memory and written out once, when the run ends, so recording costs two
//! clock reads and one push.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `carve.phase`.
    pub name: &'static str,
    /// Trace (pipeline iteration) this span belongs to.
    pub trace: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open(usize);

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    trace: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder; times are relative to now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans entered from now on belong to trace `id`.
    pub fn set_trace(&mut self, id: u32) {
        self.trace = id;
    }

    /// Opens a span named `name`, child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans must nest");
        self.spans[span.0].end_ns = end;
    }

    /// Sum of the durations of trace `trace`'s spans named `name`, in
    /// seconds.
    pub fn total_s(&self, trace: u32, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.trace == trace && s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Sum of the self times of trace `trace`'s spans whose name is in
    /// `names`, in seconds.
    pub fn self_s(&self, trace: u32, names: &[&str]) -> f64 {
        let own = self.self_times_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.trace == trace && names.contains(&s.name))
            .map(|(_, t)| t)
            .sum();
        ns as f64 * 1e-9
    }

    /// The spans as JSON lines, `header` first.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        let _ = writeln!(out, "{header}");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"trace\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(inner);
        t.exit(outer);
        let total = t.total_s(0, "outer");
        let own = t.self_s(0, &["outer"]);
        let child = t.total_s(0, "inner");
        assert!(child >= 0.005);
        assert!((own + child - total).abs() < 1e-9);
        assert!(t.to_jsonl("{}").lines().count() == 3);
    }
}
