//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public layer call it replays in a span (name,
//! start, end, parent, op id). Spans stay in memory until the run ends;
//! per-layer figures are derived from *self* time — a span's duration
//! minus the union of its children's intervals — so a parent is never
//! charged for the work it delegated.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Records spans and per-op counters while `enabled`; otherwise every
/// call passes straight through, so the same replay code runs both ways.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    /// `(op, counter name, value)`.
    pub counts: Vec<(u32, &'static str, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start attributing spans and counts to op `op`.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Record an exact counter for the current op.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            self.counts.push((self.op, name, value));
        }
    }

    /// Write every span and counter as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        for (op, name, value) in &self.counts {
            writeln!(
                out,
                "{{\"count\":\"{name}\",\"op\":{op},\"value\":{value}}}"
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (children may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start).saturating_sub(union_len(kids, s.start, s.end)))
        .collect()
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time per (op, span name), summed over the op's spans of that name.
pub fn self_by_op(spans: &[Span]) -> BTreeMap<(u32, &'static str), u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry((s.op, s.name)).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a: union 10..60
            span("c", Some(0), 90, 120), // runs past the parent: clipped to 90..100
            span("a.x", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 5, 30, 30, 5]);
    }

    #[test]
    fn self_time_of_nested_and_disjoint_children() {
        let spans = vec![
            span("root", None, 0, 10),
            span("a", Some(0), 0, 10),
            span("b", Some(0), 2, 3),
        ];
        assert_eq!(self_times(&spans), vec![0, 10, 1]);
        assert_eq!(union_len(vec![(5, 6), (1, 2), (1, 3)], 0, 10), 3);
        assert_eq!(union_len(vec![], 0, 10), 0);
    }

    #[test]
    fn tracer_nests_spans_and_passes_through_when_disabled() {
        let mut t = Tracer::new(true);
        t.begin_op(3);
        let v = t.span("outer", |t| t.span("inner", |_| 7) + 1);
        t.count("steps", 42);
        assert_eq!(v, 8);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, 3);
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);
        assert_eq!(t.counts, vec![(3, "steps", 42)]);
        let by_op = self_by_op(&t.spans);
        assert!(by_op.contains_key(&(3, "inner")));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 1)), 1);
        off.count("steps", 1);
        assert!(off.spans.is_empty() && off.counts.is_empty());
    }
}
