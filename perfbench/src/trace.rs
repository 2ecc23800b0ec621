//! In-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public
//! function: its name (`<layer>.<call>`), start and end relative to the
//! tracer's origin, and the span that caused it. Spans stay in memory
//! until [`Tracer::write_jsonl`] writes them out after the run, so the
//! recording costs one `Instant::now()` pair and a `Vec` push per call.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans plus the engine's own counters, collected at the same
/// boundaries.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counters: Vec<(String, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), counters: Vec::new() }
    }
}

impl Tracer {
    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, parent, start: now, end: now });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.duration()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Record a counter sample (e.g. one `JoinReport` field of one query).
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.counters.push((name.into(), value));
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration().as_secs_f64()).collect()
    }

    /// Self time of span `id`: its duration minus the part of its
    /// interval covered by its children.
    pub fn self_time(&self, id: usize) -> Duration {
        let mut covered: Vec<(Duration, Duration)> =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| (s.start, s.end)).collect();
        covered.sort();
        let mut busy = Duration::ZERO;
        let mut reach = self.spans[id].start;
        for (start, end) in covered {
            let start = start.max(reach);
            if end > start {
                busy += end - start;
                reach = end;
            }
        }
        self.spans[id].duration().saturating_sub(busy)
    }

    /// Every span (with its self time) and counter as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {}, \
                 \"end_s\": {}, \"self_s\": {}}}",
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                self.self_time(id).as_secs_f64(),
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{{\"counter\": \"{name}\", \"value\": {value}}}");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::default();
        let ms = Duration::from_millis;
        t.spans = vec![
            Span { name: "q", parent: None, start: ms(0), end: ms(100) },
            Span { name: "a", parent: Some(0), start: ms(10), end: ms(40) },
            Span { name: "b", parent: Some(0), start: ms(30), end: ms(60) },
            Span { name: "c", parent: Some(1), start: ms(10), end: ms(20) },
        ];
        assert_eq!(t.self_time(0), ms(50), "children cover 10..60");
        assert_eq!(t.self_time(1), ms(20));
        assert_eq!(t.durations("b"), vec![0.03]);
    }
}
