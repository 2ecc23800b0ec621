//! The repository benchmark: four named workloads driven through
//! squall's public API, each checked against an oracle.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of an untraced run (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). The run's full record — host, settings, and every
//! metric's median and quartiles — goes to
//! `perfbench/results/<workload>-seed<n>-trace<t>.json`, and a traced
//! run's spans to the same name with `.spans.jsonl`. A run with a failed
//! operation or a wrong answer exits with code 1. See `perfbench/README.md`.

mod churn;
mod hypercube;
mod oneshot;
mod oracle;
mod outcome;
mod query;
mod stats;
mod trace;
mod window;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use outcome::{Ctx, Outcome};

pub const WORKLOADS: [&str; 4] =
    ["hypercube-local", "hypercube-tcp", "view-churn", "window-stream"];

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("tuples_per_s", "tuples/s"),
    ("first_row_s", "s"),
    ("view_fresh_p50_ms", "ms"),
    ("view_fresh_p90_ms", "ms"),
    ("view_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`. A
/// workload that bypasses a layer records no work there and reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sql.parse_s", "s"),
    ("plan.plan_s", "s"),
    ("plan.optimize_s", "s"),
    ("plan.stage_s", "s"),
    ("runtime.run_s", "s"),
    ("runtime.single_thread_run_s", "s"),
    ("runtime.yields", "count"),
    ("runtime.blocked", "count"),
    ("runtime.steals", "count"),
    ("runtime.max_queue_depth", "count"),
    ("partition.analyze_s", "s"),
    ("partition.replication_factor", "ratio"),
    ("partition.skew_degree", "ratio"),
    ("partition.max_load", "count"),
    ("join.results", "count"),
    ("join.input_tuples", "count"),
    ("join.replay_insert_s", "s"),
    ("transport.bytes_sent", "bytes"),
    ("transport.batches_sent", "count"),
    ("transport.bytes_per_input_tuple", "bytes"),
    ("transport.overhead_s", "s"),
    ("standing.append_call_s", "s"),
    ("standing.append_call_tail_s", "s"),
    ("standing.retract_call_s", "s"),
    ("standing.retract_call_tail_s", "s"),
    ("standing.checkpoint_call_s", "s"),
    ("standing.snapshot_wait_s", "s"),
    ("standing.deltas_in", "count"),
    ("standing.rows_changed", "count"),
    ("standing.checkpoints", "count"),
    ("standing.epochs_applied", "count"),
    ("standing.backlog_epochs_max", "count"),
    ("standing.generator_late_ms", "ms"),
    ("catalog.append_s", "s"),
    ("catalog.retract_s", "s"),
    ("window.rows", "count"),
    ("window.join_results", "count"),
    ("window.drain_s", "s"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// First line of a command's standard output; `"unknown"` if it fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run's record: host, settings, and for every metric its value and
/// the median and quartiles of its samples.
fn record(args: &Args, ctx: &Ctx, out: &Outcome) -> String {
    let revision = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", json_str(&args.workload));
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(s, "  \"trace\": {},", args.trace);
    let _ = writeln!(s, "  \"setup_repetitions\": {},", outcome::SETUP_REPS);
    let _ = writeln!(s, "  \"available_parallelism\": {},", ctx.threads);
    let _ = writeln!(s, "  \"engine_worker_threads\": {},", ctx.engine_threads());
    let _ = writeln!(s, "  \"git_revision\": {},", json_str(&revision));
    let _ = writeln!(s, "  \"rustc\": {},", json_str(&command_line(&rustc, &["--version"])));
    let _ = writeln!(s, "  \"attempted\": {},", out.attempted);
    let _ = writeln!(s, "  \"failed\": {},", out.failed);
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    let _ = writeln!(s, "  \"ops_failed_frac\": {frac},");
    s.push_str("  \"metrics\": {\n");
    for (i, m) in out.metrics.iter().enumerate() {
        let med = stats::median(&m.samples).map_or("null".into(), |v| v.to_string());
        let (q1, q3) = stats::quartiles(&m.samples)
            .map_or(("null".into(), "null".into()), |(a, b)| (a.to_string(), b.to_string()));
        let _ = write!(
            s,
            "    {}: {{\"value\": {}, \"unit\": {}, \"rule\": {}, \"samples\": {}, \
             \"median\": {med}, \"q1\": {q1}, \"q3\": {q3}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit),
            json_str(&m.rule),
            m.samples.len(),
        );
        s.push_str(if i + 1 < out.metrics.len() { ",\n" } else { "\n" });
    }
    s.push_str("  }\n}\n");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, trace: args.trace, threads };
    let mut out = match args.workload.as_str() {
        "hypercube-local" => hypercube::run(&ctx, false),
        "hypercube-tcp" => hypercube::run(&ctx, true),
        "view-churn" => churn::run(&ctx),
        _ => window::run(&ctx),
    };
    // Where per-operation peaks are unavailable, the process's peak.
    if out.get("peak_rss_mb").is_none() {
        if let Some(rss) = outcome::peak_rss_mb() {
            out.value("peak_rss_mb", "MB", rss);
        }
    }

    // Exactly the metrics of this kind of run, each a finite number. A
    // per-layer metric the workload never touched did no work: 0.
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut line = String::new();
    let mut complete = true;
    for (name, unit) in wanted {
        let value = match out.get(name) {
            Some(m) if m.value.is_finite() => m.value,
            _ if args.trace => {
                out.value(name, unit, 0.0);
                0.0
            }
            _ => {
                eprintln!("perfbench: no value for {name}");
                complete = false;
                continue;
            }
        };
        let sep = if line.is_empty() { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }

    let dir = PathBuf::from("perfbench/results");
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), record(&args, &ctx, &out)))
        .and_then(|_| match &out.tracer {
            Some(t) => t.write_jsonl(&dir.join(format!("{stem}.spans.jsonl"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write the run record: {e}");
    }
    for m in &out.metrics {
        eprintln!("  {:<34} {:>16.6} {:<9} {}", m.name, m.value, m.unit, m.rule);
    }
    eprintln!("  ops: {} attempted, {} failed", out.attempted, out.failed);

    if !complete || out.attempted == 0 {
        return ExitCode::from(1);
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{line}}}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program runs and reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names: Vec<&str> = WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
            .copied()
            .collect();
        for name in &names {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
        }
        assert_eq!(json.matches("\"name\":").count(), names.len(), "extra names in BENCHMARK.json");
    }
}
