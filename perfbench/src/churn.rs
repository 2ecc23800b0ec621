//! `view-churn`: a resident GROUP BY view over a 3-way chain join under a
//! sliding workload — each round appends one batch per relation and
//! retracts the batch appended `K` rounds earlier, so the view's state
//! keeps one size.
//!
//! The run alternates two phases over one view, in [`BLOCKS`] blocks of
//! an open-loop stretch followed by a closed-loop stretch, so that both
//! phases sample the whole run:
//!
//! * **open loop** — rounds are due at a fixed rate ([`RATE`]); a round's
//!   freshness runs from its due time until a change batch with an epoch
//!   at or past the round's last epoch reaches a `ViewHandle::subscribe`
//!   reader. A round the generator starts late still counts from its due
//!   time. The stretch's last round reaches the reader before the
//!   closed stretch starts;
//! * **closed loop** — each round is followed by a read-your-writes
//!   `snapshot()`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use squall::common::{SplitMix64, Tuple};
use squall::join::{DBToasterJoin, LocalJoin};
use squall::{Session, ViewHandle};

use crate::hypercube::{chain_spec, schema, tuples};
use crate::oracle;
use crate::outcome::{peak_rss_mb, reset_peak_rss, secs, Ctx, Outcome, SETUP_REPS};
use crate::query;
use crate::stats::median;

pub const SQL: &str =
    "SELECT R.x, COUNT(*) FROM R, S, T WHERE R.y = S.y AND S.z = T.z GROUP BY R.x";
/// Open-loop schedule: rounds due per second, about a third of the
/// closed loop's capacity on the reference host (one round plus snapshot
/// takes about 50 ms there), so that a host running at half speed still
/// keeps up and freshness measures the write path rather than a queue.
pub const RATE: f64 = 7.0;
/// Measured blocks per run; each is an open-loop stretch followed by a
/// closed-loop stretch.
const BLOCKS: u32 = 8;
/// Share of each block spent in the open loop; the closed loop gets the
/// rest.
const OPEN_SHARE: f64 = 0.6;
const INIT: usize = 20_000;
const BATCH: usize = 100;
/// Rounds a batch stays before it is retracted.
const K: usize = 20;
const X_KEYS: i64 = 1_000;
const KEYS: i64 = 5_000;
const RELS: [&str; 3] = ["R", "S", "T"];
/// Epochs between checkpoints (the session default).
const CHECKPOINT_EVERY: u64 = 16;
/// How long to wait for the change stream to catch up at the end.
const FEED_WAIT: Duration = Duration::from_secs(10);
/// The change-stream reader's poll interval: the resolution of the
/// freshness times (about 2 % of their median), coarse enough that the
/// reader's wake-ups take little from the engine's cores.
const POLL: Duration = Duration::from_millis(1);

type Rows = Vec<(i64, i64)>;

/// `R(x, y)`, `S(y, z)`, `T(z, w)` rows.
fn rows(rng: &mut SplitMix64, rel: usize, n: usize) -> Rows {
    let (a, b) = [(X_KEYS, KEYS), (KEYS, KEYS), (KEYS, i64::from(u32::MAX))][rel];
    (0..n).map(|_| (rng.next_range(0, a - 1), rng.next_range(0, b - 1))).collect()
}

/// The initial contents and the endless sequence of round batches, both
/// fixed by the seed.
struct Workload {
    initial: [Rows; 3],
    rng: SplitMix64,
    /// The batches appended in the last `K` rounds, oldest first.
    live: VecDeque<[Rows; 3]>,
}

impl Workload {
    fn new(seed: u64) -> Workload {
        let mut rng = SplitMix64::new(seed);
        let initial = [0, 1, 2].map(|rel| rows(&mut rng, rel, INIT));
        Workload { initial, rng: rng.split(1), live: VecDeque::new() }
    }

    /// The next round: `(batches to retract, batches to append)`.
    fn next_round(&mut self) -> (Option<[Rows; 3]>, [Rows; 3]) {
        let rng = &mut self.rng;
        let add = [0, 1, 2].map(|rel| rows(rng, rel, BATCH));
        self.live.push_back(add.clone());
        let drop = (self.live.len() > K).then(|| self.live.pop_front()).flatten();
        (drop, add)
    }

    /// Current contents of relation `rel`.
    fn contents(&self, rel: usize) -> Rows {
        let mut all = self.initial[rel].clone();
        for round in &self.live {
            all.extend_from_slice(&round[rel]);
        }
        all
    }
}

/// One append or retract call.
struct Call {
    append: bool,
    took: Duration,
    /// The view's issued epoch after the call.
    epoch: u64,
}

/// The calls of one round, in order: retract the old batch of each
/// relation, then append the new batches with `R` last; traced calls are
/// children of span `parent`. Returns false after a failed call.
fn play(
    session: &mut Session,
    view: Option<&ViewHandle>,
    round: &(Option<[Rows; 3]>, [Rows; 3]),
    out: &mut Outcome,
    calls: &mut Vec<Call>,
    parent: Option<usize>,
) -> bool {
    let (drop, add) = round;
    let mut steps: Vec<(bool, usize, &Rows)> = Vec::new();
    if let Some(drop) = drop {
        steps.extend((0..3).map(|rel| (false, rel, &drop[rel])));
    }
    steps.extend([1, 2, 0].map(|rel| (true, rel, &add[rel])));
    for (append, rel, batch) in steps {
        let name: &'static str = if append { "standing.append" } else { "standing.retract" };
        let span = out.tracer().map(|t| t.open(name, parent));
        let t0 = Instant::now();
        let r = if append {
            session.append(RELS[rel], tuples(batch)).map(|_| ())
        } else {
            session.retract(RELS[rel], tuples(batch)).map(|_| ())
        };
        let took = t0.elapsed();
        if let (Some(t), Some(id)) = (out.tracer(), span) {
            t.close(id);
        }
        if out.call(r, name).is_none() {
            return false;
        }
        calls.push(Call { append, took, epoch: view.map_or(0, |v| v.epoch()) });
    }
    true
}

/// The change stream as a `subscribe` reader received it: folded onto
/// the view's initial rows, with each batch's epoch and arrival time.
#[derive(Default)]
struct Feed {
    fold: oracle::Fold,
    arrivals: Vec<(u64, Instant)>,
}

/// Read the change stream on a thread of its own until `stop` is set and
/// nothing is pending; `seen` tracks the newest epoch received. The
/// reader polls, so that it can stop whether or not another batch comes.
fn listen(
    view: &ViewHandle,
    initial: &[Tuple],
    stop: Arc<AtomicBool>,
    seen: Arc<AtomicU64>,
) -> JoinHandle<Feed> {
    let sub = view.subscribe();
    let mut feed = Feed { fold: oracle::Fold::new(initial), arrivals: Vec::new() };
    std::thread::spawn(move || {
        loop {
            match sub.try_recv() {
                Some(batch) => {
                    seen.store(batch.epoch, Ordering::SeqCst);
                    feed.arrivals.push((batch.epoch, Instant::now()));
                    feed.fold.apply(&batch);
                }
                None if stop.load(Ordering::SeqCst) => break,
                None => std::thread::sleep(POLL),
            }
        }
        feed
    })
}

/// Generate, register, analyze and create the view (its initial load).
fn prepare(ctx: &Ctx, w: &Workload, out: &mut Outcome) -> Option<(Session, Vec<Tuple>, Duration)> {
    let mut session = Session::builder().worker_threads(ctx.engine_threads()).build();
    for (rel, (name, (a, b))) in RELS.iter().zip([("x", "y"), ("y", "z"), ("z", "w")]).enumerate() {
        out.call(
            session.register(*name, schema(a, b), tuples(&w.initial[rel])).map(|_| ()),
            "register",
        )?;
    }
    let t0 = Instant::now();
    for name in RELS {
        out.call(session.analyze(name).map(|_| ()), "analyze")?;
    }
    let analyze = t0.elapsed();
    let mut created =
        out.call(session.sql(&format!("CREATE MATERIALIZED VIEW v AS {SQL}")), "create view")?;
    let initial = created.rows().to_vec();
    Some((session, initial, analyze))
}

/// Feed the run's exact inputs — the initial load, then every round's
/// retractions and appends — through one `DBToasterJoin`. Returns the
/// wall time and the net join-result count, which must equal the final
/// view's total.
fn replay_delta(seed: u64, rounds: usize) -> (f64, i64) {
    let mut w = Workload::new(seed);
    let rels = w.initial.clone().map(|r| tuples(&r));
    let plan: Vec<_> = (0..rounds).map(|_| w.next_round()).collect();
    let mut join = DBToasterJoin::new(&chain_spec(INIT as u64));
    let mut plain = Vec::new();
    let mut signed = Vec::new();
    let mut net = 0i64;
    let t0 = Instant::now();
    for i in 0..INIT {
        for (rel, rows) in rels.iter().enumerate() {
            join.insert(rel, &rows[i], &mut plain);
            net += plain.len() as i64;
            plain.clear();
        }
    }
    for (drop, add) in &plan {
        let drops = drop.iter().flat_map(|d| (0..3).map(move |rel| (rel, &d[rel], -1)));
        let adds = [1, 2, 0].map(|rel| (rel, &add[rel], 1));
        for (rel, batch, mult) in drops.chain(adds) {
            for row in tuples(batch) {
                join.delta(rel, &row, mult, &mut signed);
                net += signed.iter().map(|(_, m)| m).sum::<i64>();
                signed.clear();
            }
        }
    }
    (secs(t0.elapsed()), net)
}

/// The same call sequence on a session without a view: the catalog's
/// share of each append and retract. Returns `(append, retract)` call
/// times in seconds.
fn replay_catalog(seed: u64, rounds: usize, out: &mut Outcome) -> (Vec<f64>, Vec<f64>) {
    // The replay's calls are not the view's: keep them out of the spans.
    let tracer = out.tracer.take();
    let calls = replay_catalog_calls(seed, rounds, out);
    out.tracer = tracer;
    let split =
        |append: bool| calls.iter().filter(|c| c.append == append).map(|c| secs(c.took)).collect();
    (split(true), split(false))
}

fn replay_catalog_calls(seed: u64, rounds: usize, out: &mut Outcome) -> Vec<Call> {
    let mut w = Workload::new(seed);
    let mut session = Session::new();
    for (rel, (name, (a, b))) in RELS.iter().zip([("x", "y"), ("y", "z"), ("z", "w")]).enumerate() {
        let registered = session.register(*name, schema(a, b), tuples(&w.initial[rel]));
        if out.call(registered.map(|_| ()), "register").is_none() {
            return Vec::new();
        }
    }
    let mut calls = Vec::new();
    for _ in 0..rounds {
        let round = w.next_round();
        if !play(&mut session, None, &round, out, &mut calls, None) {
            break;
        }
    }
    calls
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx);
    let tracer = out.tracer.take();
    let mut setups = Vec::new();
    let mut analyzes = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = Workload::new(ctx.seed);
        let Some((session, initial, analyze)) = prepare(ctx, &w, &mut out) else { return out };
        setups.push(secs(t0.elapsed()));
        analyzes.push(secs(analyze));
        if rep + 1 < SETUP_REPS {
            out.call(session.drop_view("v"), "drop view");
        } else {
            ready = Some((session, initial, w));
        }
    }
    let Some((mut session, initial, mut w)) = ready else { return out };
    let Some(view) = out.call(session.view("v"), "view handle") else { return out };
    let stop = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(AtomicU64::new(0));
    let listener = listen(&view, &initial, Arc::clone(&stop), Arc::clone(&seen));
    out.tracer = tracer;

    // Warm-up: fill the sliding window so every measured round both
    // appends and retracts.
    let mut rounds = 0;
    let mut calls = Vec::new();
    let mut healthy = true;
    for _ in 0..K {
        rounds += 1;
        healthy = healthy
            && play(&mut session, Some(&view), &w.next_round(), &mut out, &mut Vec::new(), None);
    }

    // Measured blocks, each an open-loop stretch and then a closed-loop
    // stretch, so that both phases sample the whole run. In the traced
    // run the closed stretches alternate between untraced and traced.
    let period = Duration::from_secs_f64(1.0 / RATE);
    let block = Duration::from_secs_f64(ctx.seconds / f64::from(BLOCKS));
    let open_rounds = (block.as_secs_f64() * OPEN_SHARE * RATE).round().max(1.0) as u32;
    let mut open = Vec::new();
    let mut late_ms = Vec::new();
    let mut backlog = Vec::new();
    let mut closed = Vec::new();
    let mut snapshots = Vec::new();
    let mut traced_walls = Vec::new();
    let mut tracer = out.tracer.take();
    let reset = reset_peak_rss();
    for b in 0..BLOCKS {
        // Open loop: spans recorded in the traced run.
        out.tracer = tracer.take();
        let start = Instant::now() + period;
        for i in 0..open_rounds {
            if !healthy {
                break;
            }
            let due = start + period * i;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_ms.push(secs(Instant::now().saturating_duration_since(due)) * 1e3);
            backlog.push(view.epoch().saturating_sub(view.maintenance().epochs_applied) as f64);
            rounds += 1;
            let root = out.tracer().map(|t| t.open("round", None));
            healthy = play(&mut session, Some(&view), &w.next_round(), &mut out, &mut calls, root);
            if let (Some(t), Some(id)) = (out.tracer(), root) {
                t.close(id);
            }
            open.push((due, view.epoch()));
        }
        // The open stretch's last round reaches the reader before the
        // closed loop starts.
        let issued = view.epoch();
        let waited = Instant::now();
        while seen.load(Ordering::SeqCst) < issued && waited.elapsed() < FEED_WAIT {
            std::thread::sleep(POLL);
        }

        // Closed loop: each round followed by a snapshot.
        tracer = out.tracer.take();
        let traced = tracer.is_some() && b % 2 == 1;
        if traced {
            out.tracer = tracer.take();
        }
        let until = Instant::now() + block.mul_f64(1.0 - OPEN_SHARE);
        while healthy && Instant::now() < until {
            let t0 = Instant::now();
            let root = out.tracer().map(|t| t.open("round", None));
            rounds += 1;
            healthy = play(&mut session, Some(&view), &w.next_round(), &mut out, &mut calls, root);
            let s0 = Instant::now();
            let snap = out.tracer().map(|t| t.open("standing.snapshot", root));
            let ok = out.call(view.snapshot(), "snapshot").is_some();
            if let (Some(t), Some(id)) = (out.tracer(), snap) {
                t.close(id);
            }
            snapshots.push(secs(s0.elapsed()));
            let wall = secs(t0.elapsed());
            if let (Some(t), Some(id)) = (out.tracer(), root) {
                t.close(id);
            }
            healthy = healthy && ok;
            if traced {
                traced_walls.push(wall);
            } else {
                closed.push(wall);
            }
        }
        if traced {
            tracer = out.tracer.take();
        }
    }
    out.tracer = tracer;
    let rss = if reset { peak_rss_mb() } else { None };

    // Oracles: the final snapshot against a recompute and against the
    // bench's own evaluation of the current contents; the folded change
    // stream against the snapshot.
    let last = out.call(view.snapshot(), "final snapshot").unwrap_or_default();
    let recompute = match out.tracer.as_mut() {
        Some(t) => query::run_traced(&session, SQL, false, t),
        None => query::run(&session, SQL, false),
    };
    let recompute = out.call(recompute, "recompute");
    let expected = oracle::chain_count_by_x(&w.contents(0), &w.contents(1), &w.contents(2));
    out.op(
        last == expected,
        format!("final snapshot: {} rows, oracle {}", last.len(), expected.len()),
    );
    if let Some(r) = &recompute {
        out.op(r.rows == last, "recompute differs from the final snapshot");
    }
    let final_epoch = view.epoch();
    let waited = Instant::now();
    while seen.load(Ordering::SeqCst) < final_epoch && waited.elapsed() < FEED_WAIT {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);
    let feed = listener.join().unwrap_or_default();
    out.op(
        seen.load(Ordering::SeqCst) >= final_epoch,
        format!("change stream ended before epoch {final_epoch}"),
    );
    let folded = feed.fold.rows();
    out.op(folded.as_deref() == Some(&last[..]), "folded change batches differ from the snapshot");

    // Freshness of each open-loop round.
    let mut fresh_ms = Vec::new();
    for (due, epoch) in &open {
        let at = feed.arrivals.partition_point(|(e, _)| e < epoch);
        match feed.arrivals.get(at) {
            Some((_, when)) => fresh_ms.push(secs(when.saturating_duration_since(*due)) * 1e3),
            None => {
                out.op(false, format!("no change batch reached epoch {epoch}"));
            }
        }
    }
    let stats = view.maintenance();
    drop(view);
    let report = out.call(session.drop_view("v"), "drop view");

    if !ctx.trace {
        let rows_per_round = (6 * BATCH) as f64;
        out.median("setup_s", "s", setups);
        out.percentile("view_fresh_p50_ms", "ms", fresh_ms.clone(), 50.0);
        out.percentile("view_fresh_p90_ms", "ms", fresh_ms, 90.0);
        out.median("tuples_per_s", "tuples/s", closed.iter().map(|w| rows_per_round / w).collect());
        out.median("first_row_s", "s", closed.clone());
        let total: f64 = closed.iter().sum();
        if total > 0.0 {
            out.value("view_rows_per_s", "rows/s", rows_per_round * closed.len() as f64 / total);
        }
        if let Some(rss) = rss {
            out.value("peak_rss_mb", "MB", rss);
        }
        return out;
    }

    let is_checkpoint = |c: &&Call| c.epoch.is_multiple_of(CHECKPOINT_EVERY);
    let of = |append: bool| -> Vec<f64> {
        calls
            .iter()
            .filter(|c| c.append == append && !is_checkpoint(c))
            .map(|c| secs(c.took))
            .collect()
    };
    out.median("standing.append_call_s", "s", of(true));
    out.percentile("standing.append_call_tail_s", "s", of(true), 90.0);
    out.median("standing.retract_call_s", "s", of(false));
    out.percentile("standing.retract_call_tail_s", "s", of(false), 90.0);
    out.median(
        "standing.checkpoint_call_s",
        "s",
        calls.iter().filter(is_checkpoint).map(|c| secs(c.took)).collect(),
    );
    out.median("standing.snapshot_wait_s", "s", snapshots);
    out.value("standing.deltas_in", "count", stats.deltas_in as f64);
    out.value("standing.rows_changed", "count", stats.rows_changed as f64);
    out.value("standing.checkpoints", "count", stats.checkpoints as f64);
    out.value("standing.epochs_applied", "count", stats.epochs_applied as f64);
    out.value("standing.backlog_epochs_max", "count", backlog.iter().copied().fold(0.0, f64::max));
    out.value("standing.generator_late_ms", "ms", late_ms.iter().copied().fold(0.0, f64::max));
    out.median("partition.analyze_s", "s", analyzes);
    if let Some(r) = &recompute {
        if let Some(t) = out.tracer() {
            let (parse, plan, optimize) =
                (t.durations("sql.parse"), t.durations("plan.plan"), t.durations("plan.optimize"));
            out.median("sql.parse_s", "s", parse);
            out.median("plan.plan_s", "s", plan);
            out.median("plan.optimize_s", "s", optimize);
        }
        let stage = r.execute.unwrap_or(r.wall).saturating_sub(r.run);
        out.value("plan.stage_s", "s", secs(stage));
    }
    if let Some(report) = &report {
        out.value("runtime.run_s", "s", secs(report.elapsed));
        out.value("runtime.yields", "count", report.scheduler.yields as f64);
        out.value("runtime.blocked", "count", report.scheduler.blocked as f64);
        out.value("runtime.steals", "count", report.scheduler.steals as f64);
        out.value("runtime.max_queue_depth", "count", report.scheduler.max_queue_depth as f64);
        out.value("partition.replication_factor", "ratio", report.replication_factor);
        out.value("partition.skew_degree", "ratio", report.skew_degree);
        out.value(
            "partition.max_load",
            "count",
            report.loads.iter().copied().max().unwrap_or(0) as f64,
        );
        out.value("join.input_tuples", "count", report.input_count as f64);
    }
    if let (Some(u), Some(t)) = (median(&closed), median(&traced_walls)) {
        out.value("trace.overhead_s", "s", t - u);
    }
    let (appends, retracts) = replay_catalog(ctx.seed, rounds, &mut out);
    out.median("catalog.append_s", "s", appends);
    out.median("catalog.retract_s", "s", retracts);
    let (replay_s, net) = replay_delta(ctx.seed, rounds);
    let total: i64 = last.iter().filter_map(|row| row.get(1).as_int().ok()).sum();
    if out.op(net == total, format!("replayed deltas: {net} net results, view holds {total}")) {
        out.value("join.replay_insert_s", "s", replay_s);
        out.value("join.results", "count", net as f64);
    }
    out
}
