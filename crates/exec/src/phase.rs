//! Wall-clock span recording for deterministic pipeline phases.
//!
//! Attacks and layout builds already have deterministic phase boundaries
//! (they are the cancellation points); [`Recorder`] measures the
//! wall-clock spent between them so campaign timings and journal
//! provenance can attribute a job's cost to candidate scoring vs. MCMF
//! vs. evaluation — or, on the build side, to FM refinement inside
//! placement. Recording never influences results — spans are side-band
//! observability, kept out of canonical reports.
//!
//! The module lives in `sm-exec` (the bottom of the dependency stack) so
//! both the layout engine and the attacks can record into one span
//! stream.

use std::time::Instant;

/// Collects named wall-clock spans, in the order they were timed.
///
/// Span values are milliseconds. Names are `&'static str` so recording
/// costs one `Instant` pair and a push — cheap enough to leave on
/// unconditionally.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<(&'static str, f64)>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Runs `f`, recording its wall-clock under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.spans.push((name, start.elapsed().as_secs_f64() * 1e3));
        out
    }

    /// Records an externally measured span of `ms` milliseconds — for
    /// costs accumulated across many small sites (e.g. the placer's FM
    /// refinement meter, summed over thousands of regions) where
    /// wrapping each site in [`Recorder::time`] would be noise.
    pub fn add(&mut self, name: &'static str, ms: f64) {
        self.spans.push((name, ms));
    }

    /// The spans recorded so far, in recording order.
    pub fn spans(&self) -> &[(&'static str, f64)] {
        &self.spans
    }

    /// Consumes the recorder, yielding its spans.
    pub fn into_spans(self) -> Vec<(&'static str, f64)> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_in_order_and_pass_values_through() {
        let mut rec = Recorder::new();
        let a = rec.time("first", || 41 + 1);
        let b = rec.time("second", || "ok");
        assert_eq!((a, b), (42, "ok"));
        let names: Vec<&str> = rec.spans().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["first", "second"]);
        assert!(rec.spans().iter().all(|&(_, ms)| ms >= 0.0));
        assert_eq!(rec.into_spans().len(), 2);
    }
}
