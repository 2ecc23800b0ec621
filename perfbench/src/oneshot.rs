//! The closed loop shared by the one-shot workloads (`hypercube-*`,
//! `window-stream`): set up, warm up, then issue the query back to back
//! for the run's length, checking every answer.

use std::time::{Duration, Instant};

use squall::common::{Result, Tuple};
use squall::Session;

use crate::outcome::{peak_rss_mb, reset_peak_rss, secs, Ctx, Outcome, SETUP_REPS};
use crate::query::{self, QueryRun, Worker};
use crate::stats::median;
use crate::trace::Tracer;

/// A workload's query and how it is issued.
pub struct Spec {
    pub sql: &'static str,
    /// `Session::sql_stream` instead of `Session::sql`.
    pub stream: bool,
    /// Each query runs on the session plus one loopback worker.
    pub tcp: bool,
}

/// A ready session: generated, registered and analyzed.
pub struct Prepared {
    pub session: Session,
    /// The oracle's rows for the query.
    pub expected: Vec<Tuple>,
    /// Rows the query reads.
    pub input_rows: u64,
    /// Time spent in `Session::analyze`.
    pub analyze: Duration,
}

/// Everything the loop measured.
pub struct Measured {
    pub prepared: Prepared,
    pub setups: Vec<f64>,
    pub analyze: Vec<f64>,
    /// Untraced queries of the measured loop.
    pub runs: Vec<QueryRun>,
    /// Peak resident memory during the untraced loop, in MB.
    pub rss: Option<f64>,
    /// Traced queries (traced run only).
    pub traced: Vec<QueryRun>,
}

/// One query call; on a clustered workload it runs against `worker` (or
/// a freshly started one) and waits for that worker to finish.
pub fn call(
    session: &mut Session,
    spec: &Spec,
    tracer: Option<&mut Tracer>,
    worker: Option<Worker>,
) -> Result<QueryRun> {
    let worker = match (spec.tcp, worker) {
        (false, _) => None,
        (true, Some(w)) => Some(w),
        (true, None) => Some(Worker::start()?),
    };
    match &worker {
        Some(w) => w.attach(session),
        None => session.config_mut().cluster = None,
    }
    let run = match tracer {
        Some(t) => query::run_traced(session, spec.sql, spec.stream, t),
        None => query::run(session, spec.sql, spec.stream),
    };
    if let Some(w) = worker {
        let joined = w.join(run.is_err());
        if run.is_ok() {
            joined?;
        }
    }
    run
}

/// Count one query as an operation: it fails on an error, on rows that
/// differ from the oracle's, or on per-machine loads that differ from the
/// first query's (loads are deterministic for a seed, and placement-
/// independent across local and clustered runs).
pub fn check(
    out: &mut Outcome,
    run: Result<QueryRun>,
    expected: &[Tuple],
    loads: &mut Option<Vec<u64>>,
) -> Option<QueryRun> {
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            out.op(false, format!("query: {e}"));
            return None;
        }
    };
    let rows_ok = run.rows == expected;
    // Checked rows are not kept: the run's memory (`peak_rss_mb`) must not
    // grow with the number of queries it issued.
    run.rows = Vec::new();
    let loads_ok = loads.get_or_insert_with(|| run.loads.clone()) == &run.loads;
    let what = format!(
        "query answer: {} rows (expected {}), loads {}",
        run.row_count,
        expected.len(),
        if loads_ok { "equal" } else { "differ from the first query's" }
    );
    out.op(rows_ok && loads_ok, what).then_some(run)
}

/// Set up [`SETUP_REPS`] times (each followed by an untimed, checked
/// warm-up query), then run the closed loop for the run's length —
/// untraced, and in the traced run a traced half after it.
pub fn measure(
    ctx: &Ctx,
    spec: &Spec,
    out: &mut Outcome,
    loads: &mut Option<Vec<u64>>,
    prepare: impl Fn(&mut Outcome) -> Option<Prepared>,
) -> Option<Measured> {
    let mut setups = Vec::new();
    let mut analyze = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let t0 = Instant::now();
        let mut p = prepare(out)?;
        let worker = if spec.tcp { Some(out.call(Worker::start(), "start worker")?) } else { None };
        setups.push(secs(t0.elapsed()));
        analyze.push(secs(p.analyze));
        let warm = call(&mut p.session, spec, None, worker);
        check(out, warm, &p.expected, loads);
        ready = Some(p);
    }
    let mut p = ready?;
    let mut runs = Vec::new();
    let reset = reset_peak_rss();
    let until = Instant::now() + ctx.loop_time();
    while Instant::now() < until {
        let run = call(&mut p.session, spec, None, None);
        runs.extend(check(out, run, &p.expected, loads));
    }
    let rss = if reset { peak_rss_mb() } else { None };
    let mut traced = Vec::new();
    if let Some(mut tracer) = out.tracer.take() {
        let until = Instant::now() + ctx.loop_time();
        while Instant::now() < until {
            let run = call(&mut p.session, spec, Some(&mut tracer), None);
            traced.extend(check(out, run, &p.expected, loads));
        }
        out.tracer = Some(tracer);
    }
    Some(Measured { prepared: p, setups, analyze, runs, rss, traced })
}

/// The end-to-end metrics of a one-shot workload. Every query reads
/// its inputs as of its call, so a query's freshness is its call-to-last-
/// row time.
pub fn end_to_end(out: &mut Outcome, m: &Measured) {
    let input = m.prepared.input_rows as f64;
    let walls: Vec<f64> = m.runs.iter().map(|r| secs(r.wall)).collect();
    out.median("setup_s", "s", m.setups.clone());
    out.median("tuples_per_s", "tuples/s", walls.iter().map(|w| input / w).collect());
    out.median("first_row_s", "s", m.runs.iter().map(|r| secs(r.first_row)).collect());
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.percentile("view_fresh_p50_ms", "ms", ms.clone(), 50.0);
    out.percentile("view_fresh_p90_ms", "ms", ms, 90.0);
    let total: f64 = walls.iter().sum();
    if total > 0.0 {
        out.value("view_rows_per_s", "rows/s", input * walls.len() as f64 / total);
    }
    if let Some(rss) = m.rss {
        out.value("peak_rss_mb", "MB", rss);
    }
}

/// Per-layer metrics every one-shot workload reports from its traced
/// queries' spans and `JoinReport`s.
pub fn layers(out: &mut Outcome, m: &Measured) {
    let t = &m.traced;
    let per = |f: &dyn Fn(&QueryRun) -> f64| t.iter().map(f).collect::<Vec<f64>>();
    if let Some(tracer) = out.tracer() {
        for r in t {
            tracer.count("runtime.run_s", secs(r.run));
            tracer.count("runtime.yields", r.scheduler.yields as f64);
            tracer.count("runtime.blocked", r.scheduler.blocked as f64);
            tracer.count("runtime.steals", r.scheduler.steals as f64);
            tracer.count("runtime.max_queue_depth", r.scheduler.max_queue_depth as f64);
        }
        let (parse, plan, optimize) = (
            tracer.durations("sql.parse"),
            tracer.durations("plan.plan"),
            tracer.durations("plan.optimize"),
        );
        out.median("sql.parse_s", "s", parse);
        out.median("plan.plan_s", "s", plan);
        out.median("plan.optimize_s", "s", optimize);
    }
    out.median("partition.analyze_s", "s", m.analyze.clone());
    out.median(
        "plan.stage_s",
        "s",
        per(&|r| secs(r.execute.unwrap_or(r.wall).saturating_sub(r.run))),
    );
    out.median("runtime.run_s", "s", per(&|r| secs(r.run)));
    out.median("runtime.yields", "count", per(&|r| r.scheduler.yields as f64));
    out.median("runtime.blocked", "count", per(&|r| r.scheduler.blocked as f64));
    out.median("runtime.steals", "count", per(&|r| r.scheduler.steals as f64));
    out.median("runtime.max_queue_depth", "count", per(&|r| r.scheduler.max_queue_depth as f64));
    out.median("partition.replication_factor", "ratio", per(&|r| r.replication_factor));
    out.median("partition.skew_degree", "ratio", per(&|r| r.skew_degree));
    out.median(
        "partition.max_load",
        "count",
        per(&|r| r.loads.iter().copied().max().unwrap_or(0) as f64),
    );
    let untraced = median(&m.runs.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());
    let traced = median(&per(&|r| secs(r.wall)));
    if let (Some(u), Some(t)) = (untraced, traced) {
        out.value("trace.overhead_s", "s", t - u);
    }
}
