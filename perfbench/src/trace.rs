//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into the product's public functions
//! from the benchmark's files; the product itself carries no tracing for
//! this benchmark. Spans stay in memory and are written out once, at the
//! end of a traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (or inference) the span belongs to.
    pub req: u64,
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing, so
/// the same workload code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; [`Tracer::exit`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`]; spans close innermost
    /// first.
    pub fn exit(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let now = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = now;
    }

    /// Times `f` as a child span of the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, req);
        let out = f();
        self.exit(s);
        out
    }

    /// Records a span whose bounds were measured elsewhere (e.g. an
    /// open-loop request timed from its due time).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Sets the end of a span recorded by [`Tracer::record`].
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name counts, total time and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += selfs[i];
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // overlaps `a`: 25..40 adds only 30..40
            span("b", 25, 40, Some(0)),
            span("c", 90, 120, Some(0)), // clipped at the parent's end
            span("leaf", 12, 18, Some(1)),
            span("other", 200, 250, None),
        ];
        let selfs = self_times(&spans);
        // root: 100 − (10..40 ∪ 90..100 = 40)
        assert_eq!(selfs, vec![60, 14, 15, 30, 6, 50]);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new(true);
        let root = t.enter("inference", 7);
        t.time("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("child", 7, || ());
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
        let tot = t.totals();
        let (inf, child) = (tot["inference"], tot["child"]);
        assert_eq!(child.self_ns, child.total_ns);
        assert_eq!(child.count, 2);
        assert_eq!(inf.self_ns + child.total_ns, inf.total_ns);

        let mut off = Tracer::new(false);
        let s = off.enter("x", 0);
        off.exit(s);
        assert!(off.spans().is_empty());
    }
}
