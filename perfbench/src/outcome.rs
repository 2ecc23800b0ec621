//! What a workload run hands back: operation accounting, metrics with
//! their samples, and the traced run's spans.

use std::fmt::Display;
use std::time::Duration;

use crate::stats::{median, percentile, supported_percentile};
use crate::trace::Tracer;

/// Per-run settings every workload reads.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The host's available parallelism: the cap on the benchmark's own
    /// threads plus the engine's.
    pub threads: usize,
}

impl Ctx {
    /// Engine worker threads: one core is left to the main thread, which
    /// issues every call and drains every result. With a thread more than
    /// the host has cores, a run's figures follow the host's scheduling:
    /// on a shared 2-vCPU host, window-stream's rate moved 2.2× between
    /// runs with two engine threads and within ±6 % with one.
    pub fn engine_threads(&self) -> usize {
        self.threads.saturating_sub(1).max(1)
    }

    /// How long the measured loop of this run lasts. A traced run splits
    /// its time between an untraced and a traced half (their difference
    /// is the tracing overhead).
    pub fn loop_time(&self) -> Duration {
        let secs = if self.trace { self.seconds / 2.0 } else { self.seconds };
        Duration::from_secs_f64(secs)
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One reported figure: its value, unit, and the per-operation samples it
/// was reduced from (empty for a single measurement).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
    /// How the samples were reduced (e.g. "median", "p90 (supported: p50)").
    pub rule: String,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new(ctx: &Ctx) -> Outcome {
        Outcome { tracer: ctx.trace.then(Tracer::default), ..Outcome::default() }
    }

    /// Count one operation; a failed one (an `Err` or a wrong answer) is
    /// logged with `what`. Returns `ok`.
    pub fn op(&mut self, ok: bool, what: impl Display) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
        ok
    }

    /// Count one operation that returned a `Result`; `Some` on success.
    pub fn call<T, E: Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true, what);
                Some(v)
            }
            Err(e) => {
                self.op(false, format!("{what}: {e}"));
                None
            }
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: Vec<f64>,
        rule: String,
    ) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, unit, value, samples, rule });
    }

    /// A single measurement.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, value, Vec::new(), "single".into());
    }

    /// The median of per-operation samples; nothing when there are none.
    pub fn median(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        if let Some(v) = median(&samples) {
            self.push(name, unit, v, samples, "median".into());
        }
    }

    /// The nearest-rank `p`-th percentile, recording the highest
    /// percentile the sample count supports.
    pub fn percentile(
        &mut self,
        name: &'static str,
        unit: &'static str,
        samples: Vec<f64>,
        p: f64,
    ) {
        if let Some(v) = percentile(&samples, p) {
            let supported =
                supported_percentile(samples.len()).map_or("none".to_string(), |s| format!("p{s}"));
            let rule = format!("p{p} of {} (supported: {supported})", samples.len());
            self.push(name, unit, v, samples, rule);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn tracer(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut()
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process, in MB, since start or the
/// last [`reset_peak_rss`] (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Restart the peak at the current resident set size, so that the next
/// [`peak_rss_mb`] covers only what follows. False where the kernel does
/// not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
