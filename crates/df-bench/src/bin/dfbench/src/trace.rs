//! In-memory spans around the benchmark's calls into each layer.
//!
//! One [`Tracer`] belongs to one thread: spans nest by call structure (the open span
//! is the parent of the next one), carry the iteration they belong to, and stay in
//! memory until the run ends. A layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover, so nested probes never count the
//! same nanosecond twice.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The iteration (statement execution) this span belongs to.
    pub iter: u64,
    /// Units of work done inside the span (bytes or rows; 0 when not counted), so
    /// throughput is measured where the work happens.
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u64,
    /// Off for end-to-end runs: `span` then only calls its closure.
    enabled: bool,
}

impl Tracer {
    /// Tracers of one run share `epoch`, so their spans land on one time axis.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
            enabled: true,
        }
    }

    /// A tracer that records nothing, for code shared with untraced runs.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter: self.iter,
            work: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Credit `units` of work to the innermost open span.
    pub fn add_work(&mut self, units: u64) {
        if let Some(&index) = self.open.last() {
            self.spans[index].work += units;
        }
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Per iteration, the summed self time (seconds) of the spans called `name` —
    /// one sample per iteration that has such a span.
    pub fn self_s_per_iter(&self, name: &str) -> Vec<f64> {
        let self_ns = self.self_ns();
        let mut per_iter: std::collections::BTreeMap<u64, u64> = Default::default();
        for (span, own) in self.spans.iter().zip(&self_ns) {
            if span.name == name {
                *per_iter.entry(span.iter).or_default() += own;
            }
        }
        per_iter.values().map(|&ns| ns as f64 / 1e9).collect()
    }

    /// Total (work units, self seconds) over every span called `name`.
    pub fn work_and_self_s(&self, name: &str) -> (u64, f64) {
        let self_ns = self.self_ns();
        let mut work = 0;
        let mut own = 0;
        for (span, ns) in self.spans.iter().zip(&self_ns) {
            if span.name == name {
                work += span.work;
                own += ns;
            }
        }
        (work, own as f64 / 1e9)
    }

    /// One JSON object per span and line: name, start, end, parent, iteration, work
    /// and the derived self time.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let line = Json::obj(vec![
                ("workload", Json::str(workload)),
                ("id", Json::Num(id as f64)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("iter", Json::Num(span.iter as f64)),
                ("work", Json::Num(span.work as f64)),
                ("self_ns", Json::Num(own as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Duration of each span minus the union of its direct children's intervals,
/// clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let outer = &spans[parent];
            let start = span.start_ns.max(outer.start_ns);
            let end = span.end_ns.min(outer.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100; children 10..30 and 50..90; grandchild 60..80 under the second;
        // an overlapping sibling 20..40 must not be subtracted twice where it
        // overlaps the first child.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 80, Some(2)),
            span("a2", 20, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 20, 20]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_groups_by_iteration() {
        let mut tracer = Tracer::new(Instant::now());
        for iter in 0..2 {
            tracer.set_iter(iter);
            tracer.span("stmt", |t| {
                t.span("layer", |t| t.add_work(10));
                t.span("layer", |t| t.add_work(5));
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].iter, 1);
        assert_eq!(tracer.self_s_per_iter("layer").len(), 2);
        assert_eq!(tracer.work_and_self_s("layer").0, 30);
        // Parent self time excludes both children.
        let own = tracer.self_ns();
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        assert_eq!(tracer.span("x", |t| t.span("y", |_| 7)), 7);
        tracer.add_work(3);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", |_| ());
        let mut b = Tracer::new(epoch);
        b.span("y", |t| t.span("z", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }
}
