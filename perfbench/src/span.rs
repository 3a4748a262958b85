//! In-memory span recorder for the traced run.
//!
//! Spans are recorded at the benchmark's own call sites, around the calls
//! it makes into each layer's public functions. Each span has a name, a
//! start and end (nanoseconds since the recorder's epoch), the span that
//! was open on the same thread when it began (its parent), and a request
//! id shared by every span of one request. Spans stay in memory and are
//! written out once, when the workload ends. A disabled recorder reads no
//! clock and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Request id shared by the spans of one request or pass.
    pub request: u64,
    /// Layer-qualified name, e.g. `records.read_csv`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder. Shared by reference across threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a plain pass-through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` for request `request`. The span's
    /// parent is the innermost span open on this thread.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span buffer").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record an already-measured interval as a root span (used where the
    /// interval starts before the recording thread exists, as with an
    /// open-loop request timed from its due time).
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span buffer").push(Span {
            id,
            parent: 0,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A copy of every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write every span as one tab-separated line
    /// (`id parent request name start_ns end_ns self_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, selfs[&s.id]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) with children [10,30) and [20,50) (overlapping)
        // and [90,120) (running past the parent's end); the grandchild
        // [12,18) is charged to its own parent only.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
            span(5, 2, 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 6);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 30);
        assert_eq!(selfs[&5], 6);
    }

    #[test]
    fn recorder_nests_by_thread_and_is_inert_when_disabled() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 7, || {
            tracer.span("inner", 7, || std::hint::black_box(1 + 1));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 1, || 5), 5);
        assert!(off.spans().is_empty());
    }
}
