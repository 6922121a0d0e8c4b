//! In-memory spans recorded around calls into each layer.
//!
//! A span has a request id, a name, a start, an end and an optional
//! parent. Spans are appended to a preallocated vector while the traced
//! pass runs and written out as JSON lines when the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Request (or schedule) the span belongs to.
    pub req: u32,
    /// Layer-qualified name, such as `proto.decode_request`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records spans against one clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it reallocates.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, req: u32, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        req: u32,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(req, name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median self time in microseconds of every span name.
    #[must_use]
    pub fn self_medians_us(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            by_name.entry(span.name).or_default().push(ns as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| (name, crate::stats::median(&mut v)))
            .collect()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            req: 0,
            name: "x",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 70, Some(0)),
            span(45, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(100, 200, None),
            span(90, 120, Some(0)),  // starts before the parent
            span(110, 150, Some(0)), // overlaps the first child
            span(190, 250, Some(0)), // ends after the parent
        ];
        // Covered: [100, 150) and [190, 200) = 60 of 100.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let mut t = Tracer::new(4);
        let root = t.open(7, "root", None);
        t.time(7, "leaf", Some(root), || std::hint::black_box(1 + 1));
        t.close(root);
        let selfs = self_times_ns(t.spans());
        let leaf = t.spans()[1];
        assert_eq!(selfs[1], leaf.end_ns - leaf.start_ns);
        assert!(selfs[0] <= t.spans()[0].end_ns - t.spans()[0].start_ns);
        assert_eq!(t.self_medians_us().len(), 2);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
