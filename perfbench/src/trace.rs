//! Span recorder for the traced run.
//!
//! The benchmark records one span around every call it makes into a
//! layer, under a root span per operation. Spans stay in memory (one
//! log per thread) and are written out when the run ends, with each
//! span name's total and self time: a span's self time is its duration
//! minus the part of it that its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// The operation (request) this span belongs to.
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e3
    }
}

/// One thread's span log. When off, every method is a no-op and
/// [`Tracer::call`] just runs its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// High bits of every id this log hands out, so logs never collide.
    prefix: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, log: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            prefix: (log + 1) << 40,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span with known times, under an explicit id
    /// (or a fresh one when `id` is 0). Returns the id.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = if id == 0 {
            self.prefix + self.spans.len() as u64 + 1
        } else {
            id
        };
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
        id
    }

    /// Opens a span that [`Tracer::end`] closes; returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        let now = Instant::now();
        self.record(0, name, parent, req, now, now)
    }

    pub fn end(&mut self, id: u64) {
        if self.on && id != 0 {
            let end = self.ns(Instant::now());
            let idx = (id - self.prefix - 1) as usize;
            self.spans[idx].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(0, name, parent, req, start, Instant::now());
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut cur) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            sum += e - s;
            cur = e;
        }
    }
    sum
}

/// Total and self time per span name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, NameTotals)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut totals: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let kids = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(s.start, s.end, c));
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_us += dur as f64 / 1e3;
        t.self_us += dur.saturating_sub(kids) as f64 / 1e3;
    }
    let mut out: Vec<_> = totals.into_iter().collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

/// Writes every span as one JSON line, then one summary line per span
/// name with its total and self time.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.req, s.name, s.start, s.end
        )?;
    }
    for (name, t) in self_times(spans) {
        writeln!(
            out,
            r#"{{"summary":"{name}","count":{},"total_us":{},"self_us":{}}}"#,
            t.count, t.total_us, t.self_us
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start, end| Span {
            id,
            parent,
            req: 1,
            name: if parent == 0 { "root" } else { "child" },
            start,
            end,
        };
        // Root 0..100 with children 10..40 and 30..50 (overlapping) and
        // 90..120 (sticking out): covered = 10..50 + 90..100 = 50.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 120),
        ];
        let totals = self_times(&spans);
        let root = totals.iter().find(|t| t.0 == "root").unwrap().1;
        assert_eq!(root.total_us, 0.1);
        assert!((root.self_us - 0.05).abs() < 1e-12);
        let child = totals.iter().find(|t| t.0 == "child").unwrap().1;
        assert_eq!(child.count, 3);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let root = t.begin("root", 0, 1);
        assert_eq!(t.call("child", root, 1, || 7), 7);
        t.end(root);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn begin_end_nests_calls() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        let root = t.begin("root", 0, 9);
        t.call("child", root, 9, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end >= spans[1].end);
    }
}
