//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each of its own calls into a layer:
//! a name, the request it belongs to, its parent span, and start/end times
//! in nanoseconds since the run's origin. Spans stay in memory until the
//! run ends, then [`Trace::write`] writes them out as JSON lines together
//! with a per-name summary of total and self time. A span's *self time* is
//! its duration minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans one run keeps; requests past the cap are counted, not recorded.
pub const MAX_SPANS: usize = 100_000;

/// The spans of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Requests whose spans did not fit under [`MAX_SPANS`].
    dropped: u64,
    /// Request ids handed out so far.
    requests: u64,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace { origin, spans: Vec::new(), dropped: 0, requests: 0 }
    }

    /// Whether a request's `spans` spans still fit; counts the request as
    /// dropped when they do not.
    pub fn room_for(&mut self, spans: usize) -> bool {
        let fits = self.spans.len() + spans <= MAX_SPANS;
        if !fits {
            self.dropped += 1;
        }
        fits
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A fresh request id, for the spans of one request to share.
    pub fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its id (for children to name as parent).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line, then one summary line per span
    /// name with its count, total time and self time.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        let selfs = self_times(&self.spans);
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += own;
        }
        for (name, (count, total, own)) in by_name {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            )?;
        }
        Ok(())
    }
}

/// Self time of every span (indexed like `spans`, whose ids must equal
/// their positions): its duration minus the union of its children's
/// intervals, each clipped to the parent's interval.
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
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 0, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // request [0, 100): children [10, 30) and [20, 50) overlap to cover
        // [10, 50); a grandchild inside the second child does not count
        // against the request, only against its own parent.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(2), 25, 35),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A queue span may start before its parent's recorded start when
        // clocks are read on different threads; only the overlap counts.
        let spans =
            vec![span(0, None, 100, 200), span(1, Some(0), 50, 150), span(2, Some(0), 190, 260)];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
        let disjoint = vec![span(0, None, 0, 10), span(1, Some(0), 20, 30)];
        assert_eq!(self_times(&disjoint)[0], 10);
    }

    #[test]
    fn write_emits_spans_then_summaries() {
        let origin = Instant::now();
        let mut trace = Trace::new(origin);
        let root = trace.record("request", 7, None, origin, origin);
        trace.record("submit", 7, Some(root), origin, origin);
        let mut out = Vec::new();
        trace.write(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[2].starts_with("{\"summary\":\"request\""));
    }
}
