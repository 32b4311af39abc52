//! In-memory span recorder for the traced run.
//!
//! One span per timed public call: name, start, end and the span that
//! caused it. Spans stay in memory while the run executes and are
//! written out once, when the benchmark ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans
//! cover (children running in parallel are counted once).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = usize;

/// One timed interval, in microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: SpanId,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<SpanId>,
    /// Layer-qualified name, e.g. `layout.place`.
    pub name: &'static str,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("tracer poisoned").push(span);
    }

    /// Times `f` as span `name` under `parent`; `f` receives the new
    /// span's id so nested calls can hang their spans below it.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let value = f(id);
        let end_us = self.now_us();
        self.push(Span {
            id,
            parent,
            name,
            start_us,
            end_us,
        });
        value
    }

    /// Records child spans of `parent` from durations the program
    /// measured itself (`(name, ms)` pairs, in execution order), laid
    /// end to end from the parent's start. Only their durations are
    /// measured; their placement inside the parent is nominal.
    pub fn children_from_ms(
        &self,
        parent: SpanId,
        parent_start_us: f64,
        parts: &[(&'static str, f64)],
    ) {
        let mut at = parent_start_us;
        for &(name, ms) in parts {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            let dur = ms * 1e3;
            self.push(Span {
                id,
                parent: Some(parent),
                name,
                start_us: at,
                end_us: at + dur,
            });
            at += dur;
        }
    }

    /// Like [`Tracer::span`], also handing `f` the span's start time, for
    /// callers that attach [`Tracer::children_from_ms`] spans.
    pub fn span_at<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId, f64) -> T,
    ) -> T {
        let start = self.now_us();
        self.span(name, parent, |id| f(id, start))
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("tracer poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total self time per span name, in microseconds: each span's duration
/// minus the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0.0, |c| union_within(c, s.start_us, s.end_us));
        *out.entry(s.name).or_insert(0.0) += (s.dur_us() - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite span bounds"));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// The spans as a JSON array, one object per line.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.id, parent, s.name, s.start_us, s.end_us
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, "job", 0.0, 100.0),
            span(1, Some(0), "core.protect", 10.0, 60.0),
            span(2, Some(1), "layout.place", 20.0, 30.0),
            span(3, Some(1), "layout.route", 40.0, 45.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], 50.0);
        assert_eq!(t["core.protect"], 35.0);
        assert_eq!(t["layout.place"], 10.0);
        assert_eq!(t["layout.route"], 5.0);
    }

    #[test]
    fn parallel_children_are_counted_once() {
        // Two join arms overlapping inside one bundle span.
        let spans = vec![
            span(0, None, "bundle", 0.0, 100.0),
            span(1, Some(0), "core.protect", 0.0, 80.0),
            span(2, Some(0), "core.baseline", 10.0, 50.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bundle"], 20.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(0, None, "attacks.flow", 0.0, 10.0),
            span(1, Some(0), "attacks.mcmf", 5.0, 15.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["attacks.flow"], 5.0);
        assert_eq!(t["attacks.mcmf"], 10.0);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        let tracer = Tracer::default();
        tracer.span("job", None, |job| {
            tracer.span_at("attacks.flow", Some(job), |flow, start| {
                tracer.children_from_ms(flow, start, &[("attacks.mcmf", 0.0)]);
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"attacks.mcmf"));
        let flow = spans.iter().find(|s| s.name == "attacks.flow").unwrap();
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(flow.parent, Some(job.id));
        assert!(spans_json(&spans).contains("\"name\": \"attacks.flow\""));
    }
}
