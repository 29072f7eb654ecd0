//! Paired end-to-end comparison of two `bench_e2e` builds: the parent of
//! a change and the change itself, run alternately on the same seeds.
//!
//! For every seed in the range and every workload, both binaries run the
//! workload once, untraced (`--trace 0`), for the same section length,
//! with `RAYON_NUM_THREADS=1`; which side goes first alternates from one
//! seed to the next, so a drift in the host's speed lands on both sides
//! alike. Each run's last stdout line is its result record; the
//! `"<metric>":{"value":x}` fields of the end-to-end metrics that
//! `BENCHMARK.json` declares are read from it.
//!
//! Per workload and metric the report gives both sides' median and
//! quartiles, the ratio of medians (change ÷ parent), the pairs the change
//! won, and a verdict:
//!
//! * `regressed` — the change's median is worse than the parent's by more
//!   than the metric's bound in `BENCHMARK.json`;
//! * `gain` — the change won at least 9 pairs in 10 and its median is
//!   better by more than the parent's interquartile range;
//! * `unresolved` — the parent's IQR is wider than the metric's bound
//!   (relative to its median) and the change did not beat every parent
//!   run: the parent's own spread is too wide to call the metric flat;
//! * `flat` — the medians differ by no more than the parent's IQR;
//! * `unresolved` — anything else: a shift past the parent's own spread
//!   that the pairs do not confirm.
//!
//! Output: one JSON line (`{"pairs":…,"seconds":…,"rows":[…]}`), then the
//! same rows as a markdown table. Exit 1 if any run failed (no record,
//! `"correct":false` or `"failed"` > 0), 2 on a bad flag.
//!
//! Run (from the repository root, both binaries built beforehand):
//! ```text
//! cargo run --release -p fftmatvec-bench --bin bench_pair -- \
//!     -parent <dir>/bench_e2e -change <dir>/bench_e2e \
//!     -seeds 100..110 -seconds 4 -workloads longseries_dd,paper_dd
//! ```
//! Flags:
//! * `-parent <path>`, `-change <path>` — the two `bench_e2e` binaries
//! * `-seeds <a..b>` — one pair per seed in `a..b` (default `1..11`)
//! * `-seconds <s>` — section length of every run (default 4)
//! * `-workloads <a,b,…>` — default: every workload `BENCHMARK.json` lists
//! * `-benchmark <path>` — the benchmark declaration (default
//!   `BENCHMARK.json`), read only

use std::process::Command;

use fftmatvec_bench::{die, Args};

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The text of every object in `text` that has a `"name"` field, in
/// order (flat objects: each runs up to the next `{`).
fn objects(text: &str) -> Vec<&str> {
    text.split('{').filter(|o| o.contains("\"name\"")).collect()
}

/// The value following `"key":` in `text`, up to `,`, `}` or `]`,
/// unquoted — the field scanner of `record::field`.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = text.find(&tag)? + tag.len();
    let rest = &text[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// The workload names and end-to-end metrics `BENCHMARK.json` declares.
fn declaration(path: &str) -> (Vec<String>, Vec<Metric>) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    let section = |key: &str| -> &str {
        let start =
            text.find(&format!("\"{key}\"")).unwrap_or_else(|| die(format!("{path}: no {key}")));
        let rest = &text[start..];
        &rest[..rest.find(']').unwrap_or(rest.len())]
    };
    let workloads = objects(section("workloads"))
        .into_iter()
        .filter_map(|o| field(o, "name").map(str::to_string))
        .collect();
    let metrics = objects(section("end_to_end"))
        .into_iter()
        .map(|o| {
            let get = |k| field(o, k).unwrap_or_else(|| die(format!("{path}: metric without {k}")));
            Metric {
                name: get("name").to_string(),
                lower_is_better: get("better") == "lower",
                bound: get("bound").parse().unwrap_or_else(|_| die(format!("{path}: bad bound"))),
            }
        })
        .collect();
    (workloads, metrics)
}

/// Run one binary on one workload and return its last stdout line.
fn run(bin: &str, workload: &str, seed: u64, seconds: f64) -> String {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .unwrap_or_else(|e| die(format!("cannot run {bin}: {e}")));
    String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or("").to_string()
}

/// `metric`'s value in a result record: the `"<metric>":{"value":x}`
/// shape.
fn metric_value(record: &str, metric: &str) -> Option<f64> {
    let start = record.find(&format!("\"{metric}\":{{"))?;
    field(&record[start + metric.len() + 3..], "value")?.parse().ok()
}

/// Did the run check out: a record, `"correct":true`, `"failed":0`?
fn run_ok(record: &str) -> bool {
    field(record, "correct") == Some("true") && field(record, "failed") == Some("0")
}

/// Linear-interpolated quantile of an unsorted sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `(median, q1, q3)` of a sample.
fn summary(xs: &[f64]) -> (f64, f64, f64) {
    (quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

/// The verdict for one workload × metric (see the module docs).
fn verdict(m: &Metric, parent: &[f64], change: &[f64]) -> (&'static str, usize) {
    let better = |c: f64, p: f64| if m.lower_is_better { c < p } else { c > p };
    let won = parent.iter().zip(change).filter(|&(&p, &c)| better(c, p)).count();
    let (p_med, p_q1, p_q3) = summary(parent);
    let c_med = summary(change).0;
    let ratio = c_med / p_med;
    let worse_by = if m.lower_is_better { ratio - 1.0 } else { 1.0 - ratio };
    let shift = (c_med - p_med).abs();
    let iqr = p_q3 - p_q1;
    let beats_all = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let v = if worse_by > m.bound {
        "regressed"
    } else if 10 * won >= 9 * parent.len() && better(c_med, p_med) && shift > iqr {
        "gain"
    } else if iqr / p_med.abs() > m.bound && !beats_all {
        "unresolved"
    } else if shift <= iqr {
        "flat"
    } else {
        "unresolved"
    };
    (v, won)
}

fn main() {
    let args = Args::from_env();
    let bin = |flag: &str| -> String {
        args.try_get(flag)
            .unwrap_or_else(|e| die(e))
            .unwrap_or_else(|| die(format!("-{flag} <bench_e2e binary> is required")))
    };
    let (parent, change) = (bin("parent"), bin("change"));
    let seeds: String = args.get("seeds", "1..11".to_string());
    let (a, b) = seeds
        .split_once("..")
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .filter(|(a, b)| a < b)
        .unwrap_or_else(|| die(format!("-seeds takes a non-empty range a..b, got '{seeds}'")));
    let seconds: f64 = args.get("seconds", 4.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        die("-seconds must lie in (0, 600]");
    }
    let (declared, metrics) = declaration(&args.get("benchmark", "BENCHMARK.json".to_string()));
    let workloads: Vec<String> =
        match args.try_get::<String>("workloads").unwrap_or_else(|e| die(e)) {
            Some(list) => list.split(',').map(str::to_string).collect(),
            None => declared.clone(),
        };
    if let Some(w) = workloads.iter().find(|w| !declared.contains(w)) {
        die(format!("-workloads: '{w}' is not a workload of the benchmark"));
    }

    let mut failed_runs = 0;
    let mut rows = Vec::new();
    for workload in &workloads {
        // values[side][metric] over the pairs, side 0 = parent.
        let mut values = vec![vec![Vec::new(); metrics.len()]; 2];
        for (k, seed) in (a..b).enumerate() {
            let order = if k % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut records = [String::new(), String::new()];
            for side in order {
                let path = if side == 0 { &parent } else { &change };
                records[side] = run(path, workload, seed, seconds);
            }
            for (side, record) in records.iter().enumerate() {
                if !run_ok(record) {
                    eprintln!("bench_pair: {workload} seed {seed}: run failed: {record}");
                    failed_runs += 1;
                }
                for (mi, m) in metrics.iter().enumerate() {
                    values[side][mi].push(metric_value(record, &m.name).unwrap_or(f64::NAN));
                }
            }
            eprintln!("bench_pair: {workload} pair {} of {} done", k + 1, b - a);
        }
        for (mi, m) in metrics.iter().enumerate() {
            let (p, c) = (&values[0][mi], &values[1][mi]);
            if p.iter().chain(c).any(|v| v.is_nan()) {
                continue; // not reported by this workload
            }
            let (verdict, won) = verdict(m, p, c);
            rows.push((workload.clone(), m.name.clone(), summary(p), summary(c), won, verdict));
        }
    }

    let pairs = b - a;
    let side =
        |(med, q1, q3): (f64, f64, f64)| format!("{{\"median\":{med},\"q1\":{q1},\"q3\":{q3}}}");
    let json_rows: Vec<String> = rows
        .iter()
        .map(|(w, m, p, c, won, v)| {
            format!(
                "{{\"workload\":\"{w}\",\"metric\":\"{m}\",\"parent\":{},\"change\":{},\"ratio\":{},\"won\":{won},\"verdict\":\"{v}\"}}",
                side(*p),
                side(*c),
                c.0 / p.0
            )
        })
        .collect();
    println!(
        "{{\"pairs\":{pairs},\"seconds\":{seconds},\"failed_runs\":{failed_runs},\"rows\":[{}]}}",
        json_rows.join(",")
    );
    println!();
    println!("| workload | metric | parent median [q1, q3] | change median [q1, q3] | ratio | won | verdict |");
    println!("|---|---|---|---|---|---|---|");
    let cell = |(med, q1, q3): (f64, f64, f64)| format!("{med:.4} [{q1:.4}, {q3:.4}]");
    for (w, m, p, c, won, v) in &rows {
        println!(
            "| {w} | {m} | {} | {} | {:.3} | {won}/{pairs} | {v} |",
            cell(*p),
            cell(*c),
            c.0 / p.0
        );
    }
    if failed_runs > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric { name: "fwd_p50_us".into(), lower_is_better: true, bound }
    }

    #[test]
    fn metric_values_are_read_from_a_result_record() {
        let record = r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"fwd_p50_us":{"value":8.25,"unit":"us"}}}"#;
        assert_eq!(metric_value(record, "fwd_p50_us"), Some(8.25));
        assert_eq!(metric_value(record, "setup_s"), Some(0.5));
        assert_eq!(metric_value(record, "adj_p50_us"), None);
        assert!(run_ok(record));
        assert!(!run_ok(&record.replace("\"failed\":0", "\"failed\":2")));
        assert!(!run_ok(""));
    }

    #[test]
    fn verdicts_follow_pairs_spread_and_bound() {
        let parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0];
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(verdict(&lower(0.25), &parent, &faster), ("gain", 10));
        assert_eq!(verdict(&lower(0.25), &parent, &parent).0, "flat");
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert_eq!(verdict(&lower(0.25), &parent, &slower), ("regressed", 0));
        // Faster in the median, but only on half the pairs.
        let mixed: Vec<f64> = parent
            .iter()
            .enumerate()
            .map(|(i, p)| if i % 2 == 0 { p * 0.8 } else { p * 1.01 })
            .collect();
        assert_eq!(verdict(&lower(0.25), &parent, &mixed).0, "unresolved");
        // Higher-is-better metrics flip every comparison.
        let rate = Metric { name: "ops_per_s".into(), lower_is_better: false, bound: 0.25 };
        assert_eq!(verdict(&rate, &parent, &faster).0, "unresolved");
        assert_eq!(verdict(&rate, &parent, &slower), ("gain", 10));
        // A parent whose IQR (40 % of its median) is wider than the bound:
        // an unchanged change is not flat but unresolved…
        let wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 100.0, 100.0, 65.0, 135.0];
        assert_eq!(verdict(&lower(0.25), &wide, &wide).0, "unresolved");
        // …unless every change run beats every parent run.
        let far: Vec<f64> = wide.iter().map(|p| p * 0.4).collect();
        assert_eq!(verdict(&lower(0.25), &wide, &far).0, "gain");
        // The same small shift is flat under a bound wider than the
        // parent's IQR (9 % of its median) and unresolved under a tighter
        // one.
        let narrow = [100.0, 120.0, 110.0, 105.0, 115.0];
        let near: Vec<f64> = narrow.iter().map(|p| p * 0.98).collect();
        assert_eq!(verdict(&lower(0.25), &narrow, &near).0, "flat");
        assert_eq!(verdict(&lower(0.05), &narrow, &near).0, "unresolved");
    }

    #[test]
    fn the_declaration_lists_workloads_and_end_to_end_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let (workloads, metrics) = declaration(path);
        assert!(workloads.iter().any(|w| w == "longseries_dd"), "{workloads:?}");
        let fwd = metrics.iter().find(|m| m.name == "fwd_p50_us").expect("fwd_p50_us");
        assert!(fwd.lower_is_better && fwd.bound > 0.0);
        let ops = metrics.iter().find(|m| m.name == "ops_per_s").expect("ops_per_s");
        assert!(!ops.lower_is_better);
    }
}
