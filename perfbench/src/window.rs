//! `window-stream`: a per-window GROUP BY over an event-time tumbling
//! window join of two registered streams, drained through `sql_stream`.
//!
//! Ad ids are zipf-skewed in both streams, so a few (window, ad) groups
//! carry most of the join results.

use std::time::Instant;

use squall::common::{tuple, SplitMix64, Tuple, Zipf};
use squall::Session;

use crate::hypercube::schema;
use crate::oneshot::{self, Prepared, Spec};
use crate::oracle;
use crate::outcome::{secs, Ctx, Outcome};

const WIDTH: i64 = 10_000;
pub const SQL: &str = "SELECT I.ad_id, COUNT(*) FROM impressions I, clicks C \
                       WHERE I.ad_id = C.ad_id WINDOW TUMBLING 10000 ON ts GROUP BY I.ad_id";
/// Tumbling windows the streams span, each holding 400 impressions and
/// 80 clicks on average.
const WINDOWS: usize = 25;
const IMPRESSIONS: usize = 400 * WINDOWS;
const CLICKS: usize = 80 * WINDOWS;
const ADS: usize = 1_000;
const THETA: f64 = 1.0;
/// Event time runs over `[0, SPAN]`.
const SPAN: i64 = WINDOWS as i64 * WIDTH - 1;

/// `(ad_id, ts)` rows in event-time order.
fn stream(rng: &mut SplitMix64, zipf: &Zipf, n: usize) -> Vec<(i64, i64)> {
    let mut rows: Vec<(i64, i64)> =
        (0..n).map(|_| (zipf.sample(rng) as i64, rng.next_range(0, SPAN))).collect();
    rows.sort_by_key(|&(ad, ts)| (ts, ad));
    rows
}

fn tuples(rows: &[(i64, i64)]) -> Vec<Tuple> {
    rows.iter().map(|&(ad, ts)| tuple![ad, ts]).collect()
}

fn prepare(ctx: &Ctx, out: &mut Outcome) -> Option<Prepared> {
    let mut rng = SplitMix64::new(ctx.seed);
    let zipf = Zipf::new(ADS, THETA);
    let imps = stream(&mut rng, &zipf, IMPRESSIONS);
    let clicks = stream(&mut rng, &zipf, CLICKS);
    let mut session = Session::builder().worker_threads(ctx.engine_threads()).build();
    for (name, rows) in [("impressions", &imps), ("clicks", &clicks)] {
        let registered = session.register_stream(name, schema("ad_id", "ts"), tuples(rows), "ts");
        out.call(registered.map(|_| ()), "register_stream")?;
    }
    let t0 = Instant::now();
    for name in ["impressions", "clicks"] {
        out.call(session.analyze(name).map(|_| ()), "analyze")?;
    }
    let analyze = t0.elapsed();
    let expected = oracle::tumbling_counts(&imps, &clicks, WIDTH);
    Some(Prepared { session, expected, input_rows: (IMPRESSIONS + CLICKS) as u64, analyze })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx);
    let spec = Spec { sql: SQL, stream: true, tcp: false };
    let mut loads = None;
    let Some(mut m) = oneshot::measure(ctx, &spec, &mut out, &mut loads, |o| prepare(ctx, o))
    else {
        return out;
    };
    if !ctx.trace {
        oneshot::end_to_end(&mut out, &m);
        return out;
    }
    oneshot::layers(&mut out, &m);
    let t = &m.traced;
    out.median("window.rows", "count", t.iter().map(|r| r.row_count as f64).collect());
    out.median("window.join_results", "count", t.iter().map(|r| r.result_count as f64).collect());
    out.median("window.drain_s", "s", t.iter().map(|r| secs(r.drain)).collect());
    out.median("join.input_tuples", "count", t.iter().map(|r| r.input_count as f64).collect());
    let mut single = Vec::new();
    m.prepared.session.config_mut().worker_threads = Some(1);
    for _ in 0..3 {
        let run = oneshot::call(&mut m.prepared.session, &spec, None, None);
        single.extend(oneshot::check(&mut out, run, &m.prepared.expected, &mut loads));
    }
    out.median("runtime.single_thread_run_s", "s", single.iter().map(|r| secs(r.run)).collect());
    out
}
