//! `bench_e2e` — one end-to-end + per-layer benchmark for the fftmatvec
//! workspace. See `README.md` next to this package for the workloads, the
//! metrics and how they interact.
//!
//! ```text
//! bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last stdout line is the result
//!     record BENCHMARK.json's contract describes
//! bench_e2e [--suite] [--workload <name>] [--seed N] [--seconds S] [--trace 0|1]
//!     every workload (or the named one), each in its own child process,
//!     untraced then traced; writes bench_e2e/out/latest.json
//! bench_e2e --selfcheck [--seed N] [--seconds S]
//!     the suite twice; fails if the two sets disagree beyond the bounds
//! ```

mod blocktri;
mod harness;
mod json;
mod serve;
mod spec;
mod stats;
mod toeplitz;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Mode, Outcome, RunArgs};
use json::{obj, Value};
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

/// Recorded in every output, so a run can be repeated.
const DEFAULT_SEED: u64 = 20250810;
/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

/// Per-layer metrics computed from shapes and ledgers, not clocks: the
/// same `--seed` must reproduce them exactly (`--selfcheck` and the unit
/// tests hold them to that).
pub const EXACT_COUNTS: [&str; 7] = [
    "backend.casts_per_apply",
    "backend.bytes_up_per_apply",
    "backend.bytes_down_per_apply",
    "fft.flops_per_apply",
    "blas.flops_per_apply",
    "blas.bytes_per_apply",
    "core.autotune.admissible_configs",
];

/// Where traces and `latest.json` go, relative to the working directory
/// (the repo root, for the driver and for `run.sh`).
pub fn out_dir() -> PathBuf {
    PathBuf::from("bench_e2e/out")
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    suite: bool,
    selfcheck: bool,
    apply_only: bool,
    threads: Option<usize>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        suite: false,
        selfcheck: false,
        apply_only: false,
        threads: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--threads" => {
                cli.threads = Some(value()?.parse().map_err(|_| "--threads takes a count")?)
            }
            "--suite" => cli.suite = true,
            "--selfcheck" => cli.selfcheck = true,
            "--apply-only" => cli.apply_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &cli.workload {
        if spec::workload(w).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w:?}; the workloads are {names:?}"));
        }
    }
    Ok(cli)
}

fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper_dd" => blocktri::run(&blocktri::PAPER_DD, args),
        "paper_mixed" => blocktri::run(&blocktri::PAPER_MIXED, args),
        "longseries_dd" => blocktri::run(&blocktri::LONGSERIES_DD, args),
        "toeplitz_2level" => toeplitz::run(args),
        "serve_solver" => serve::run(&serve::SOLVER, args),
        "serve_block" => serve::run(&serve::BLOCK, args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result record: exactly `correct`, `attempted`, `failed`,
/// `metrics`, with every metric of `table` present. Untraced runs must
/// have measured each end-to-end metric; a per-layer metric whose layer
/// is not on the workload's path reads 0.
fn result_record(outcome: &Outcome, table: &[Metric], all_required: bool) -> Result<Value, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for m in table {
        let value = match outcome.metrics.iter().find(|(name, _)| *name == m.name) {
            Some(&(_, v)) if v.is_finite() => v,
            Some(&(_, v)) => return Err(format!("{} measured as {v}", m.name)),
            None if all_required => return Err(format!("{} was not measured", m.name)),
            None => 0.0,
        };
        metrics.push((m.name, obj([("value", Value::Num(value)), ("unit", m.unit.into())])));
    }
    if let Some((stray, _)) =
        outcome.metrics.iter().find(|(name, _)| !table.iter().any(|m| m.name == *name))
    {
        return Err(format!("{stray} is not a declared metric"));
    }
    Ok(obj([
        ("correct", Value::Bool(outcome.failed == 0 && outcome.attempted > 0)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", obj(metrics)),
    ]))
}

fn print_metrics(workload: &str, record: &Value, table: &[Metric]) {
    let Some(metrics) = record.get("metrics") else { return };
    for m in table {
        let value = metrics.get(m.name).and_then(|v| v.get("value")).and_then(Value::as_f64);
        if let Some(v) = value {
            // Errors and shares live far below 1; keep their digits.
            let shown =
                if v != 0.0 && v.abs() < 1e-3 { format!("{v:.6e}") } else { format!("{v:.6}") };
            println!(
                "{workload:<16} {:<40} {shown:>16} {:<8} {} is better",
                m.name, m.unit, m.better
            );
        }
    }
    let count = |k| record.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    println!("{workload:<16} ops attempted {} failed {}", count("attempted"), count("failed"));
}

/// One workload, in this process.
fn single(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let mode = match (cli.apply_only, cli.trace.unwrap_or(false)) {
        (true, _) => Mode::ApplyOnly,
        (false, false) => Mode::Untraced,
        (false, true) => Mode::Traced,
    };
    let args =
        RunArgs { workload: workload.to_owned(), seed: cli.seed, seconds: cli.seconds, mode };
    let outcome = run_workload(&args)?;
    if mode == Mode::ApplyOnly {
        let fields = outcome.metrics.iter().map(|&(k, v)| (k, Value::Num(v)));
        println!("{}", obj(fields).render());
        return Ok(if outcome.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    let table: &[Metric] = if mode == Mode::Untraced { &END_TO_END } else { &PER_LAYER };
    let record = result_record(&outcome, table, mode == Mode::Untraced)?;
    println!(
        "# bench_e2e {workload} seed {} seconds {} trace {} threads {}",
        cli.seed,
        cli.seconds,
        u8::from(mode == Mode::Traced),
        rayon::current_num_threads()
    );
    println!("# why: {}", spec::workload(workload).map_or("", |w| w.why));
    for note in &outcome.notes {
        println!("# {note}");
    }
    print_metrics(workload, &record, table);
    println!("{}", record.render());
    Ok(if outcome.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Run one workload in a child process and parse its result record.
fn child_record(cli: &Cli, workload: &str, trace: bool, echo: bool) -> Result<Value, String> {
    let (seed, seconds) = (cli.seed.to_string(), cli.seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let (status, mut lines) = harness::run_self(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ])?;
    let last = lines.pop().ok_or(format!("{workload}: child printed nothing ({status})"))?;
    if echo {
        for line in lines {
            println!("{line}");
        }
    }
    let record = json::parse(&last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    if !status.success() {
        eprintln!("{workload}: child exited with {status}");
    }
    Ok(record)
}

fn record_failed(record: &Value) -> bool {
    record.get("correct").and_then(Value::as_bool) != Some(true)
}

fn selected(cli: &Cli) -> Vec<&str> {
    match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    }
}

/// Every selected workload in its own child: untraced, then traced.
fn suite(cli: &Cli) -> Result<ExitCode, String> {
    let mut failed = false;
    let mut sections = Vec::new();
    for trace in [false, true] {
        if cli.trace.is_some_and(|only| only != trace) {
            continue;
        }
        let title = if trace { "traced" } else { "untraced" };
        println!("== {title}: seed {}, {} s per workload ==", cli.seed, cli.seconds);
        let mut rows = Vec::new();
        for workload in selected(cli) {
            let record = child_record(cli, workload, trace, true)?;
            failed |= record_failed(&record);
            rows.push((workload, record));
        }
        sections.push((title, obj(rows)));
    }
    let latest = obj([
        ("seed", Value::Num(cli.seed as f64)),
        ("seconds", Value::Num(cli.seconds)),
        ("runs", obj(sections)),
    ]);
    let path = out_dir().join("latest.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, latest.render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn metric_value(record: &Value, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The suite twice (A, B): every end-to-end metric must agree within its
/// bound and every exact count must be identical. A bound that is
/// breached on unchanged code is too tight for this machine: lengthen
/// the run or widen the bound in `BENCHMARK.json`, never gate on it.
fn selfcheck(cli: &Cli) -> Result<ExitCode, String> {
    let mut breached = false;
    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "|A-B|/A", "bound"
    );
    for workload in selected(cli) {
        let a = child_record(cli, workload, false, false)?;
        let b = child_record(cli, workload, false, false)?;
        breached |= record_failed(&a) || record_failed(&b);
        for m in &END_TO_END {
            let (va, vb) = (metric_value(&a, m.name), metric_value(&b, m.name));
            let (Some(va), Some(vb)) = (va, vb) else {
                return Err(format!("{workload}: {} missing from a result", m.name));
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let diff = (va - vb).abs() / va.abs();
            let verdict = if diff > bound { "BREACH" } else { "" };
            breached |= diff > bound;
            println!(
                "{workload:<16} {:<34} {va:>14.4} {vb:>14.4} {diff:>9.4} {bound:>7.2} {verdict}",
                m.name
            );
        }
        let a = child_record(cli, workload, true, false)?;
        let b = child_record(cli, workload, true, false)?;
        breached |= record_failed(&a) || record_failed(&b);
        for name in EXACT_COUNTS {
            let (va, vb) = (metric_value(&a, name), metric_value(&b, name));
            let verdict = if va == vb && va.is_some() { "" } else { "DIFFERS" };
            breached |= !verdict.is_empty();
            println!(
                "{workload:<16} {name:<34} {:>14} {:>14} {:>9} {:>7} {verdict}",
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN),
                "exact",
                ""
            );
        }
    }
    println!("{}", if breached { "selfcheck: FAILED" } else { "selfcheck: ok" });
    Ok(if breached { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    // The compute pool reads its size once, on first use; nothing has
    // touched it yet and no other thread exists. One thread (the pool
    // then spawns none and every apply runs on its caller): on a few
    // shared cores a fork-join across all of them waits for whichever
    // core the host slowed down, and ten runs of the same code spread
    // 3x wider with two pool threads than with one. The pool itself is
    // measured per layer, in the `apply_2t` child (`--threads`).
    let threads = cli.threads.unwrap_or(1).max(1);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let result = match (&cli.workload, cli.selfcheck, cli.suite) {
        (_, true, _) => selfcheck(&cli),
        (Some(w), false, false) => single(&cli, w),
        _ => suite(&cli),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
