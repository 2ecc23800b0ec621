//! `hypercube-local` and `hypercube-tcp`: back-to-back 3-way chain-join
//! counts on 16 machines, in process or with one loopback worker.
//!
//! `R(x, y) ⋈ S(y, z) ⋈ T(z, w)` with `R.y` zipf-skewed over a small key
//! domain (so Hybrid-Hypercube meets a heavy hitter) and `z` sparse: a
//! domain ten times the relation size, where each key's ten `S` rows hold
//! exactly one `z` that `T` holds. The join's shape — every `R` row meets
//! ten `S` rows and completes one result — is the same for every seed, so
//! seeds change the rows but not the work.

use std::time::Instant;

use squall::common::{tuple, DataType, Schema, SplitMix64, Tuple, Zipf};
use squall::expr::{JoinAtom, MultiJoinSpec, RelationDef};
use squall::join::{DBToasterJoin, LocalJoin};
use squall::Session;

use crate::oneshot::{self, Prepared, Spec};
use crate::oracle;
use crate::outcome::{secs, Ctx, Outcome};

pub const SQL: &str = "SELECT COUNT(*) FROM R, S, T WHERE R.y = S.y AND S.z = T.z";
const MACHINES: usize = 16;
const ROWS: usize = 20_000;
const Y_KEYS: usize = 2_000;
const THETA: f64 = 1.0;
const SPARSE: i64 = 10 * ROWS as i64;
const WIDE: i64 = 1_000_000;

/// The three relations as `(a, b)` pairs.
pub struct Data {
    pub r: Vec<(i64, i64)>,
    pub s: Vec<(i64, i64)>,
    pub t: Vec<(i64, i64)>,
}

pub fn generate(seed: u64) -> Data {
    let mut rng = SplitMix64::new(seed);
    let zipf = Zipf::new(Y_KEYS, THETA);
    let r = (0..ROWS).map(|_| (rng.next_range(0, WIDE), zipf.sample(&mut rng) as i64)).collect();
    // Distinct z values in random order: the first ROWS are T's, and the
    // first Y_KEYS of those are the ones S joins on.
    let mut z: Vec<i64> = (0..SPARSE).collect();
    rng.shuffle(&mut z);
    let (in_t, not_in_t) = z.split_at(ROWS);
    let per_key = ROWS / Y_KEYS;
    let mut s: Vec<(i64, i64)> = (0..ROWS)
        .map(|i| {
            let (y, copy) = (i / per_key, i % per_key);
            (y as i64, if copy == 0 { in_t[y] } else { not_in_t[i] })
        })
        .collect();
    rng.shuffle(&mut s);
    let t = in_t.iter().map(|&z| (z, rng.next_range(0, WIDE))).collect();
    Data { r, s, t }
}

pub fn tuples(rows: &[(i64, i64)]) -> Vec<Tuple> {
    rows.iter().map(|&(a, b)| tuple![a, b]).collect()
}

pub fn schema(a: &str, b: &str) -> Schema {
    Schema::of(&[(a, DataType::Int), (b, DataType::Int)])
}

/// Generate, register and analyze.
fn prepare(ctx: &Ctx, out: &mut Outcome) -> Option<Prepared> {
    let data = generate(ctx.seed);
    let mut session =
        Session::builder().machines(MACHINES).worker_threads(ctx.engine_threads()).build();
    for (name, a, b, rows) in
        [("R", "x", "y", &data.r), ("S", "y", "z", &data.s), ("T", "z", "w", &data.t)]
    {
        out.call(session.register(name, schema(a, b), tuples(rows)).map(|_| ()), "register")?;
    }
    let t0 = Instant::now();
    for name in ["R", "S", "T"] {
        out.call(session.analyze(name).map(|_| ()), "analyze")?;
    }
    let analyze = t0.elapsed();
    let expected = vec![tuple![oracle::chain_count(&data.r, &data.s, &data.t)]];
    Some(Prepared { session, expected, input_rows: 3 * ROWS as u64, analyze })
}

/// The chain join's spec for a standalone local join over relations of
/// about `n` rows.
pub fn chain_spec(n: u64) -> MultiJoinSpec {
    MultiJoinSpec::new(
        vec![
            RelationDef::new("R", schema("x", "y"), n),
            RelationDef::new("S", schema("y", "z"), n),
            RelationDef::new("T", schema("z", "w"), n),
        ],
        vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
    )
    .expect("the chain join is a valid spec")
}

/// Feed the workload's exact inputs, interleaved across relations the way
/// the spouts emit them, through one `DBToasterJoin::insert`. Returns the
/// wall time and the results produced.
fn replay_insert(data: &Data) -> (f64, i64) {
    let rels = [tuples(&data.r), tuples(&data.s), tuples(&data.t)];
    let mut join = DBToasterJoin::new(&chain_spec(ROWS as u64));
    let mut results = Vec::new();
    let mut produced = 0;
    let t0 = Instant::now();
    for i in 0..ROWS {
        for (rel, rows) in rels.iter().enumerate() {
            join.insert(rel, &rows[i], &mut results);
            produced += results.len() as i64;
            results.clear();
        }
    }
    (secs(t0.elapsed()), produced)
}

pub fn run(ctx: &Ctx, tcp: bool) -> Outcome {
    let mut out = Outcome::new(ctx);
    let spec = Spec { sql: SQL, stream: false, tcp };
    let mut loads = None;
    let Some(mut m) = oneshot::measure(ctx, &spec, &mut out, &mut loads, |o| prepare(ctx, o))
    else {
        return out;
    };
    // The same query without the worker: its rows and loads must equal the
    // clustered ones; the traced run takes the transport's overhead from
    // the difference in runtime.
    let local = Spec { tcp: false, ..spec };
    let mut local_runs = Vec::new();
    if tcp {
        for _ in 0..if ctx.trace { 3 } else { 1 } {
            let run = oneshot::call(&mut m.prepared.session, &local, None, None);
            local_runs.extend(oneshot::check(&mut out, run, &m.prepared.expected, &mut loads));
        }
    }
    if !ctx.trace {
        oneshot::end_to_end(&mut out, &m);
        return out;
    }
    oneshot::layers(&mut out, &m);
    let t = &m.traced;
    out.median("join.results", "count", t.iter().map(|r| r.result_count as f64).collect());
    out.median("join.input_tuples", "count", t.iter().map(|r| r.input_count as f64).collect());
    if tcp {
        let sent: Vec<(f64, f64, f64)> = t
            .iter()
            .filter_map(|r| {
                let (bytes, batches) = r.sent?;
                Some((bytes as f64, batches as f64, bytes as f64 / r.input_count.max(1) as f64))
            })
            .collect();
        out.median("transport.bytes_sent", "bytes", sent.iter().map(|s| s.0).collect());
        out.median("transport.batches_sent", "count", sent.iter().map(|s| s.1).collect());
        out.median("transport.bytes_per_input_tuple", "bytes", sent.iter().map(|s| s.2).collect());
        let run_s = |runs: &[crate::query::QueryRun]| {
            crate::stats::median(&runs.iter().map(|r| secs(r.run)).collect::<Vec<_>>())
        };
        if let (Some(remote), Some(local)) = (run_s(t), run_s(&local_runs)) {
            out.value("transport.overhead_s", "s", remote - local);
        }
    } else {
        let mut single = Vec::new();
        m.prepared.session.config_mut().worker_threads = Some(1);
        for _ in 0..3 {
            let run = oneshot::call(&mut m.prepared.session, &local, None, None);
            single.extend(oneshot::check(&mut out, run, &m.prepared.expected, &mut loads));
        }
        m.prepared.session.config_mut().worker_threads = Some(ctx.engine_threads());
        out.median(
            "runtime.single_thread_run_s",
            "s",
            single.iter().map(|r| secs(r.run)).collect(),
        );
    }
    let (replay_s, produced) = replay_insert(&generate(ctx.seed));
    let expected = m.prepared.expected[0].get(0).as_int().unwrap_or(-1);
    if out
        .op(produced == expected, format!("replayed join: {produced} results, expected {expected}"))
    {
        out.value("join.replay_insert_s", "s", replay_s);
    }
    out
}
