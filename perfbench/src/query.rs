//! One-shot query calls, untraced (`Session::sql` / `sql_stream`, the
//! user's path) or traced (the same steps through the layers' public
//! functions, one span each), plus the loopback worker for clustered runs.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use squall::common::{Result, SquallError, Tuple};
use squall::plan::PhysicalQuery;
use squall::runtime::SchedulerStats;
use squall::{ClusterSpec, ResultSet, Session};

use crate::trace::Tracer;

/// What one query call returned and what its `JoinReport` said.
#[derive(Debug)]
pub struct QueryRun {
    /// Call to last row (stream drained).
    pub wall: Duration,
    /// Call to first row.
    pub first_row: Duration,
    /// First row to last row.
    pub drain: Duration,
    /// `PhysicalQuery::execute` wall time (traced calls only; for a stream,
    /// `execute_stream` plus the drain).
    pub execute: Option<Duration>,
    /// Rows sorted; emptied once checked.
    pub rows: Vec<Tuple>,
    /// Rows the query returned.
    pub row_count: usize,
    pub run: Duration,
    pub input_count: u64,
    pub result_count: u64,
    pub loads: Vec<u64>,
    pub replication_factor: f64,
    pub skew_degree: f64,
    pub scheduler: SchedulerStats,
    /// `(bytes, batches)` the coordinator sent, for clustered runs.
    pub sent: Option<(u64, u64)>,
}

/// Drain a result set, timing the first row from `start`.
fn drain(mut rs: ResultSet, start: Instant) -> Result<QueryRun> {
    let mut rows = Vec::new();
    let mut first_row = None;
    if rs.is_streaming() {
        for row in rs.by_ref() {
            first_row.get_or_insert_with(|| start.elapsed());
            rows.push(row);
        }
        if let Some(e) = rs.error() {
            return Err(e.clone());
        }
        rows.sort();
    } else {
        rows = rs.rows().to_vec();
    }
    let wall = start.elapsed();
    let first_row = first_row.unwrap_or(wall);
    let report = rs
        .report()
        .ok_or_else(|| SquallError::Runtime("distributed query returned no report".into()))?;
    Ok(QueryRun {
        wall,
        first_row,
        drain: wall - first_row,
        execute: None,
        row_count: rows.len(),
        rows,
        run: report.elapsed,
        input_count: report.input_count,
        result_count: report.result_count,
        loads: report.loads.clone(),
        replication_factor: report.replication_factor,
        skew_degree: report.skew_degree,
        scheduler: report.scheduler.clone(),
        sent: report.transport.as_ref().map(|t| (t.total_bytes_sent(), t.total_batches_sent())),
    })
}

/// `Session::sql` (or `sql_stream` when `stream`), drained.
pub fn run(session: &Session, sql: &str, stream: bool) -> Result<QueryRun> {
    let start = Instant::now();
    let rs = if stream { session.sql_stream(sql)? } else { session.sql(sql)? };
    drain(rs, start)
}

/// The same call as [`run`], step by step: `sql::parse`,
/// `PhysicalQuery::plan`, `plan::optimize` and `PhysicalQuery::execute`
/// (or `execute_stream`), each in its own span under one `query` span.
pub fn run_traced(
    session: &Session,
    sql: &str,
    stream: bool,
    tracer: &mut Tracer,
) -> Result<QueryRun> {
    let start = Instant::now();
    let root = tracer.open("query", None);
    let (query, _) = tracer.span("sql.parse", Some(root), || squall::sql::parse(sql));
    let (catalog, cfg) = (session.catalog(), session.config());
    let (plan, _) = tracer.span("plan.plan", Some(root), || PhysicalQuery::plan(&query?, catalog));
    let mut plan = plan?;
    let (optimized, _) = tracer.span("plan.optimize", Some(root), || {
        squall::plan::optimizer::optimize(&mut plan, catalog, cfg)
    });
    optimized?;
    let exec = tracer.open("plan.execute", Some(root));
    let rs = if stream { plan.execute_stream(catalog, cfg) } else { plan.execute(catalog, cfg) };
    let out = rs.and_then(|rs| drain(rs, start));
    let execute = tracer.close(exec);
    tracer.close(root);
    let mut out = out?;
    out.execute = Some(execute);
    Ok(out)
}

/// A loopback `squall-worker` serving exactly one job, in a thread of
/// this process (`cluster::run_worker` with `once`).
pub struct Worker {
    pub addr: String,
    handle: JoinHandle<Result<()>>,
}

impl Worker {
    pub fn start() -> Result<Worker> {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            squall::engine::cluster::run_worker("127.0.0.1:0", true, |addr| {
                let _ = tx.send(addr.to_string());
            })
        });
        match rx.recv() {
            Ok(addr) => Ok(Worker { addr, handle }),
            Err(_) => Err(handle
                .join()
                .map_err(|_| SquallError::Runtime("worker thread panicked".into()))?
                .err()
                .unwrap_or_else(|| SquallError::Runtime("worker exited before binding".into()))),
        }
    }

    /// Point `session` at this worker.
    pub fn attach(&self, session: &mut Session) {
        session.config_mut().cluster = Some(ClusterSpec::new([self.addr.clone()]));
    }

    /// Wait for the worker's job to end. After a query that failed, the
    /// worker may still wait for a job that will never come: `poke` first
    /// opens and drops a connection so it stops waiting.
    pub fn join(self, poke: bool) -> Result<()> {
        if poke {
            drop(std::net::TcpStream::connect(&self.addr));
        }
        self.handle.join().map_err(|_| SquallError::Runtime("worker thread panicked".into()))?
    }
}
