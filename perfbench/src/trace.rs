//! Spans the benchmark records around its own calls into each layer.
//!
//! A traced run (`--trace 1`) opens a span before each layer call and
//! closes it after; spans stay in memory (one [`Tracer`] per thread) and
//! are folded into per-layer figures when the run ends. An untraced run
//! keeps a disabled tracer whose calls record nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The request (or work item) the span belongs to.
    pub request: u64,
}

/// A handle to an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// In-memory span recorder for one thread.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` under `parent`.
    pub fn open(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = Instant::now();
        }
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: None,
                request,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Distinct request ids the spans belong to.
    pub fn requests(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Append another thread's spans (their parent links are rebased).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name self times (span duration minus the part of it its
    /// children cover), in recording order.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<Duration>> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            out.entry(s.name)
                .or_default()
                .push(self_time(s.start, s.end, kids));
        }
        out
    }
}

/// `end - start` minus the union of the child intervals, each clipped
/// to the parent's interval.
pub fn self_time(start: Instant, end: Instant, mut kids: Vec<(Instant, Instant)>) -> Duration {
    let total = end.saturating_duration_since(start);
    kids.sort();
    let mut covered = Duration::ZERO;
    let mut reach = start;
    for (s, e) in kids {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    total.saturating_sub(covered)
}

/// Cost of one open/close pair on this host, used to estimate how much
/// of a traced run went to tracing itself.
pub fn span_cost() -> Duration {
    const N: u32 = 100_000;
    let mut t = Tracer::new(true);
    let started = Instant::now();
    for i in 0..N {
        let id = t.open("calibrate", u64::from(i), None);
        t.close(id);
    }
    std::hint::black_box(t.len());
    started.elapsed() / N
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, us: u64) -> Instant {
        base + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let b = Instant::now();
        // Parent 0..100; children 10..30 and 20..50 overlap on 20..30.
        let kids = vec![(at(b, 20), at(b, 50)), (at(b, 10), at(b, 30))];
        assert_eq!(
            self_time(at(b, 0), at(b, 100), kids),
            Duration::from_micros(60)
        );
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let b = Instant::now();
        let kids = vec![(at(b, 90), at(b, 150))];
        assert_eq!(
            self_time(at(b, 0), at(b, 100), kids),
            Duration::from_micros(90)
        );
    }

    #[test]
    fn tracer_links_parents_across_absorbed_threads() {
        let mut main = Tracer::new(true);
        let root = main.open("root", 1, None);
        main.close(root);
        let mut worker = Tracer::new(true);
        let outer = worker.open("outer", 2, None);
        let inner = worker.open("inner", 2, outer);
        std::thread::sleep(Duration::from_millis(2));
        worker.close(inner);
        worker.close(outer);
        main.absorb(worker);
        assert_eq!(main.spans[2].parent, Some(1));
        let times = main.self_times();
        assert!(times["inner"][0] >= Duration::from_millis(2));
        assert!(times["outer"][0] < times["inner"][0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", 0, None);
        assert_eq!(id, None);
        t.close(id);
        t.record("y", 0, Instant::now(), Instant::now());
        assert_eq!(t.len(), 0);
    }
}
