//! In-memory spans recorded by the benchmark around each call into a
//! layer of the program.  Nothing is recorded inside the program itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: which layer and function, when, the span that
/// caused it, and the op it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the called function belongs to (`serve`, `kernel`, ...).
    pub layer: &'static str,
    /// The called function.
    pub name: &'static str,
    /// Offset from the recorder's creation.
    pub start: Duration,
    /// Offset from the recorder's creation; equal to `start` while open.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

/// A span recorder.  A disabled recorder records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Spans::begin`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.origin.elapsed();
        self.spans.push(Span {
            layer,
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Close `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        if let Some(i) = span.0 {
            assert_eq!(self.open.pop(), Some(i), "spans must close innermost first");
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// `f` inside a span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.begin(layer, name, op);
        let out = f();
        self.end(span);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part its child
    /// spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            *by_layer.entry(s.layer).or_insert(Duration::ZERO) +=
                (s.end - s.start).saturating_sub(c);
        }
        by_layer
    }

    /// Tab-separated dump: `index layer name op start_ns end_ns parent`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tlayer\tname\top\tstart_ns\tend_ns\tparent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{parent}",
                s.layer,
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        let outer = spans.begin("bench", "op", 0);
        spans.time("kernel", "k", 0, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        spans.end(outer);
        let by_layer = spans.self_time_by_layer();
        assert!(by_layer["kernel"] >= Duration::from_millis(5));
        assert!(by_layer["bench"] < by_layer["kernel"]);
        assert_eq!(spans.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        spans.time("kernel", "k", 0, || ());
        assert!(spans.spans().is_empty());
    }
}
