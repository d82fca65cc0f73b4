//! The benchmark's own tracer: spans around each public call into a layer,
//! and counters read from the values those calls return.
//!
//! Spans are recorded from outside the program, so a span's duration is
//! the layer's self time (the traced calls do not nest). When tracing is
//! off, [`Tracer::span`] only calls the closure and [`Tracer::count`]
//! does nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-name span durations (ms, one entry per call) and counter samples.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ..Self::default()
        }
    }

    /// Runs `f`, recording its duration under `name` when tracing is on.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.spans.entry(name).or_default().push(ms);
        out
    }

    /// Records one sample of counter `name` when tracing is on.
    #[inline]
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.entry(name).or_default().push(value);
        }
    }

    /// Durations of every call recorded under `name`, in ms.
    pub fn span_samples(&self, name: &str) -> &[f64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    /// Samples of counter `name`.
    pub fn count_samples(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the samples of counter `name`.
    pub fn count_total(&self, name: &str) -> f64 {
        self.count_samples(name).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        t.count("c", 1.0);
        assert!(t.span_samples("a").is_empty());
        assert!(t.count_samples("c").is_empty());
    }

    #[test]
    fn on_records_each_call() {
        let mut t = Tracer::new(true);
        t.span("a", || ());
        t.span("a", || ());
        t.count("c", 2.0);
        t.count("c", 3.0);
        assert_eq!(t.span_samples("a").len(), 2);
        assert_eq!(t.count_total("c"), 5.0);
    }
}
