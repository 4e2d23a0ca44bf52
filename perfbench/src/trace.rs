//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer (nothing inside the program is instrumented). Each span has a
//! name, start and end, the span that caused it, and the id of the
//! session it belongs to. Spans stay in memory until the run ends and
//! are then written out in one file; a span's self time is its duration
//! minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id (`≥ 1`).
    pub id: u64,
    /// The causing span's id, `0` for a root.
    pub parent: u64,
    /// Shared by every span of one session (or one layer probe).
    pub session: u64,
    /// What was called.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span records nothing until it is ended"]
pub struct Span {
    id: u64,
    parent: u64,
    session: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// This span's id, for use as a child's parent (`0` when tracing is
    /// off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-name totals over the recorded spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the union of children), ns.
    pub self_ns: u64,
}

/// In-memory span recorder; a disabled recorder records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh id for a session or a span.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span named `name` under `parent` (`0` for a root) in
    /// `session`.
    pub fn begin(&self, name: &'static str, parent: u64, session: u64) -> Span {
        if !self.enabled {
            return Span {
                id: 0,
                parent,
                session,
                name,
                start: None,
            };
        }
        Span {
            id: self.fresh_id(),
            parent,
            session,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Closes `span`, recording it.
    pub fn end(&self, span: Span) {
        if let Some(start) = span.start {
            self.push(
                span.id,
                span.parent,
                span.session,
                span.name,
                start,
                Instant::now(),
            );
        }
    }

    /// Records an already-timed interval as a span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        session: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.fresh_id();
        self.push(id, parent, session, name, start, end);
        id
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        session: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span store poisoned")
            .push(SpanRecord {
                id,
                parent,
                session,
                name,
                start_ns: ns(start),
                end_ns: ns(end).max(ns(start)),
            });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans())
    }

    /// Writes every span plus the per-name self-time table as JSON.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("{\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"session\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.session, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n],\"self_time\":[");
        for (i, (name, t)) in self_times(&spans).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-name totals, with each span's self time taken as its duration
/// minus the union of its children's intervals clipped to it.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered;
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            session: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            rec(1, 0, "session", 0, 100),
            rec(2, 1, "trainer", 10, 60),
            rec(3, 1, "client", 40, 90),
            rec(4, 3, "ot", 50, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["session"].self_ns, 20);
        assert_eq!(t["trainer"].self_ns, 50);
        assert_eq!(t["client"].self_ns, 10);
        assert_eq!(t["ot"].self_ns, 70);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.begin("x", 0, 1);
        assert_eq!(s.id(), 0);
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
