//! Pieces every workload shares: the run parameters, the closed-loop
//! driver for direct (non-service) operators, set-up timing, and the
//! pool-baseline child.

use std::process::{Command, Stdio};
use std::time::Instant;

use fftmatvec::core::{autotune, BoundParams, LinearOperator, OpDirection};
use fftmatvec::numeric::SplitMix64;

use crate::json::{self, Value};
use crate::stats::{highest, iqr_ratio, lowest, median, quantile};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end metrics.
    Untraced,
    /// Spans on: the per-layer metrics.
    Traced,
    /// Internal: direct applies only, for the two-pool-thread child.
    ApplyOnly,
}

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    pub mode: Mode,
}

/// What one workload run reports; `main` maps it onto the named metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Fill in an untraced run: the five end-to-end metrics and the op
    /// counts. `checks_ok` false (an oracle or reconciliation miss)
    /// fails every op.
    pub fn end_to_end(&mut self, timed: &Timed, setup_s: f64, checks_ok: bool) {
        self.notes.push(timed.block_note());
        self.attempted = timed.attempted;
        self.failed = if checks_ok { timed.failed } else { timed.attempted };
        self.set("setup_s", setup_s);
        self.set("fwd_p50_us", timed.fwd_p50_us());
        self.set("adj_p50_us", timed.adj_p50_us());
        self.set("ops_per_s", timed.ops_per_s());
        self.set("peak_rss_mib", peak_rss_mib());
    }
}

/// Deterministic input streams: the same `--seed` gives the same
/// operator and vectors on every workload that shares a shape (so
/// `paper_mixed` sees exactly `paper_dd`'s operator and inputs).
pub fn stream(seed: u64, index: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index))
}

pub fn uniform_vec(seed: u64, index: u64, len: usize) -> Vec<f64> {
    let mut v = vec![0.0; len];
    stream(seed, index).fill_uniform(&mut v, -1.0, 1.0);
    v
}

/// Mantissa-stuffed inputs (the paper's §4.2.1 methodology): every
/// narrowing cast loses bits, so mixed-precision error is visible.
pub fn stuffed_vec(seed: u64, index: u64, len: usize) -> Vec<f64> {
    let mut v = vec![0.0; len];
    stream(seed, index).fill_uniform_stuffed(&mut v, -1.0, 1.0);
    v
}

/// `‖got − want‖₂ / ‖want‖₂`.
pub use fftmatvec::numeric::vecmath::rel_l2_error as rel_err;

/// Budget at which `core.autotune.admissible_configs` prunes the
/// lattice.
pub const AUTOTUNE_BUDGET: f64 = 1e-6;

/// Forward-direction Eq. 6 parameters for a shape, with κ fixed at 1 so
/// the admissible count depends on the shape alone.
pub fn bound_params(nd: usize, nm: usize, nt: usize) -> BoundParams {
    BoundParams::for_direction(OpDirection::Forward, nt, nd, nm, 1, 1, 1.0)
}

/// Lattice configurations Eq. 6 admits at [`AUTOTUNE_BUDGET`] (exact).
pub fn admissible_configs(nd: usize, nm: usize, nt: usize) -> f64 {
    autotune::admissible_configs(AUTOTUNE_BUDGET, &bound_params(nd, nm, nt)).len() as f64
}

/// One F / F* pair applied directly, with the bit-exact outputs every
/// repetition must reproduce (those were checked against the workload's
/// oracle before timing starts).
pub struct Pair<'a> {
    pub fwd: &'a dyn LinearOperator,
    pub adj: &'a dyn LinearOperator,
    pub m: &'a [f64],
    pub d: &'a [f64],
    pub want_fwd: &'a [f64],
    pub want_adj: &'a [f64],
}

/// One timed section, block by block. Every block leaves its F and F*
/// medians and its rate. The latencies themselves are kept only when
/// `keep_samples` is set (the traced run's tails and pooled medians), so
/// that an untraced run's memory, which `peak_rss_mib` reports, does not
/// grow with the number of ops the run completes.
pub struct Timed {
    keep_samples: bool,
    pub fwd_block_p50_us: Vec<f64>,
    pub adj_block_p50_us: Vec<f64>,
    pub block_ops_per_s: Vec<f64>,
    fwd_us: Vec<f64>,
    adj_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    pub fn new(keep_samples: bool) -> Self {
        Timed {
            keep_samples,
            fwd_block_p50_us: Vec::new(),
            adj_block_p50_us: Vec::new(),
            block_ops_per_s: Vec::new(),
            fwd_us: Vec::new(),
            adj_us: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn blocks(&self) -> usize {
        self.block_ops_per_s.len()
    }

    /// Close a block: record its medians and rate, and empty the sample
    /// buffers for the next one.
    pub fn push_block(&mut self, f_us: &mut Vec<f64>, a_us: &mut Vec<f64>, ops_per_s: f64) {
        self.fwd_block_p50_us.push(median(f_us));
        self.adj_block_p50_us.push(median(a_us));
        self.block_ops_per_s.push(ops_per_s);
        if self.keep_samples {
            self.fwd_us.extend_from_slice(f_us);
            self.adj_us.extend_from_slice(a_us);
        }
        f_us.clear();
        a_us.clear();
    }

    /// Median F latency in the run's quietest block.
    pub fn fwd_p50_us(&self) -> f64 {
        lowest(&self.fwd_block_p50_us)
    }

    pub fn adj_p50_us(&self) -> f64 {
        lowest(&self.adj_block_p50_us)
    }

    /// Rate of the run's fastest block.
    pub fn ops_per_s(&self) -> f64 {
        highest(&self.block_ops_per_s)
    }

    /// Pooled medians and the middle block's rate: the whole section,
    /// the machine's noise included. The traced run compares these with
    /// its span medians, like with like. (Pooled statistics need
    /// `keep_samples`.)
    pub fn fwd_pooled_p50_us(&self) -> f64 {
        quantile(&self.fwd_us, 0.5)
    }

    pub fn adj_pooled_p50_us(&self) -> f64 {
        quantile(&self.adj_us, 0.5)
    }

    pub fn median_ops_per_s(&self) -> f64 {
        median(&self.block_ops_per_s)
    }

    /// Pooled tails of the whole section (diagnostic: they carry the
    /// machine's noise).
    pub fn fwd_p95_us(&self) -> f64 {
        quantile(&self.fwd_us, 0.95)
    }

    pub fn adj_p95_us(&self) -> f64 {
        quantile(&self.adj_us, 0.95)
    }

    /// `q`-quantile over every latency of the section, both directions
    /// pooled.
    pub fn pooled_quantile_us(&self, q: f64) -> f64 {
        quantile(&[self.fwd_us.as_slice(), self.adj_us.as_slice()].concat(), q)
    }

    /// Spread of the per-block (F p50 + F* p50) over its median.
    pub fn block_iqr_ratio(&self) -> f64 {
        let per_block: Vec<f64> =
            self.fwd_block_p50_us.iter().zip(&self.adj_block_p50_us).map(|(f, a)| f + a).collect();
        iqr_ratio(&per_block)
    }

    /// How the per-block F and F* medians were distributed, for the
    /// run's printed context: `min` is what the run reports, and its
    /// distance to `p50` is how much of the run the machine spent slowed
    /// down.
    pub fn block_note(&self) -> String {
        let row = |p50s: &[f64]| -> String {
            let q = |p| quantile(p50s, p);
            format!(
                "{:.0} / {:.0} / {:.0} / {:.0} / {:.0}",
                q(0.0),
                q(0.25),
                q(0.5),
                q(0.75),
                q(1.0)
            )
        };
        format!(
            "{} blocks; block p50s (us) min / p25 / p50 / p75 / max  F: {}  F*: {}",
            self.blocks(),
            row(&self.fwd_block_p50_us),
            row(&self.adj_block_p50_us)
        )
    }
}

/// Fewest blocks a timed section is cut into, however short `--seconds`.
pub const MIN_BLOCKS: usize = 5;

/// Closed loop, one caller: apply F, wait, apply F*, wait. Blocks have a
/// fixed pair count (so block statistics compare across runs) and run
/// until `seconds` have passed, at least [`MIN_BLOCKS`] of them. The
/// output check after each apply is the caller's think time and is kept
/// off the clock: `ops_per_s` is ops per second spent inside applies.
pub fn run_pairs(
    pair: &Pair<'_>,
    pairs_per_block: usize,
    seconds: f64,
    keep_samples: bool,
) -> Timed {
    let mut timed = Timed::new(keep_samples);
    let mut out_f = vec![0.0; pair.want_fwd.len()];
    let mut out_a = vec![0.0; pair.want_adj.len()];
    let mut f_us = Vec::with_capacity(pairs_per_block);
    let mut a_us = Vec::with_capacity(pairs_per_block);
    let started = Instant::now();
    while timed.blocks() < MIN_BLOCKS || started.elapsed().as_secs_f64() < seconds {
        for _ in 0..pairs_per_block {
            let t0 = Instant::now();
            let rf = pair.fwd.apply_forward_into(pair.m, &mut out_f);
            let t1 = Instant::now();
            if rf.is_err() || out_f != pair.want_fwd {
                timed.failed += 1;
            }
            let t2 = Instant::now();
            let ra = pair.adj.apply_adjoint_into(pair.d, &mut out_a);
            let t3 = Instant::now();
            if ra.is_err() || out_a != pair.want_adj {
                timed.failed += 1;
            }
            f_us.push((t1 - t0).as_secs_f64() * 1e6);
            a_us.push((t3 - t2).as_secs_f64() * 1e6);
        }
        let busy_s = (f_us.iter().sum::<f64>() + a_us.iter().sum::<f64>()) / 1e6;
        timed.attempted += 2 * pairs_per_block as u64;
        timed.push_block(&mut f_us, &mut a_us, 2.0 * pairs_per_block as f64 / busy_s);
    }
    timed
}

/// Run `setup` repeatedly — at least three times, and for up to a second
/// while set-ups are cheap, so the sample outlasts a brief slowdown of
/// the machine — and report the last built state with the **median** of the
/// seconds each set-up spent in the program (the closure times only the
/// program's own work, not the benchmark's RNG). Each state is dropped
/// before the next is built so peak RSS holds one set-up, not several.
pub fn measure_setup<T>(
    mut setup: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 200;
    const CHEAP_BUDGET_S: f64 = 1.0;
    let started = Instant::now();
    let mut secs = Vec::new();
    let mut state = None;
    while secs.len() < MIN_REPS
        || (secs.len() < MAX_REPS && started.elapsed().as_secs_f64() < CHEAP_BUDGET_S)
    {
        drop(state.take());
        let (built, s) = setup()?;
        secs.push(s);
        state = Some(built);
    }
    Ok((state.expect("at least one set-up ran"), median(&secs)))
}

/// `VmHWM` of this process in MiB (Linux procfs); 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run this program again as a child with `args` and return its exit
/// status and stdout lines (stderr passes through). One process per
/// workload keeps `peak_rss_mib`, the plan caches and the pool size
/// that workload's own.
pub fn run_self(args: &[&str]) -> Result<(std::process::ExitStatus, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let lines = String::from_utf8_lossy(&out.stdout).lines().map(str::to_owned).collect();
    Ok((out.status, lines))
}

/// The pool baseline: the same workload's direct applies in a child
/// process with `min(nproc, 2)` pool threads (the pool size is read once
/// per process, so it takes a process; every other number comes from a
/// one-thread pool). Returns (F µs, F* µs).
pub fn pool_baseline(args: &RunArgs, seconds: f64) -> Result<(f64, f64), String> {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (seed, seconds, threads) =
        (args.seed.to_string(), seconds.to_string(), hw.min(2).to_string());
    let (status, lines) = run_self(&[
        "--workload",
        &args.workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--apply-only",
        "--threads",
        &threads,
    ])?;
    if !status.success() {
        return Err(format!("pool-baseline child exited with {status}"));
    }
    let line = lines.last().ok_or("pool-baseline child printed nothing")?;
    let v = json::parse(line)?;
    let num = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("child result lacks {k}"));
    Ok((num("fwd_us")?, num("adj_us")?))
}

/// The traced-run numbers every direct operator shares: tails of the
/// untraced section, the 32-column batched apply, the pool baseline,
/// and the harness's own overhead and noise.
pub fn traced_extras(
    pair: &Pair<'_>,
    args: &RunArgs,
    untraced: &Timed,
    traced_apply_sum_us: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    out.set("core.pipeline.fwd_p95_us", untraced.fwd_p95_us());
    out.set("core.pipeline.adj_p95_us", untraced.adj_p95_us());

    let (n_f, n_a) = (pair.want_fwd.len(), pair.want_adj.len());
    let (ins_f, ins_a) = (pair.m.repeat(32), pair.d.repeat(32));
    let (mut outs_f, mut outs_a) = (vec![0.0; 32 * n_f], vec![0.0; 32 * n_a]);
    let mut per_vec_us = Vec::new();
    let started = Instant::now();
    while per_vec_us.is_empty() || started.elapsed().as_secs_f64() < 0.1 * args.seconds {
        let t0 = Instant::now();
        pair.fwd
            .apply_many_into(OpDirection::Forward, &ins_f, &mut outs_f)
            .and_then(|()| pair.adj.apply_many_into(OpDirection::Adjoint, &ins_a, &mut outs_a))
            .map_err(|e| e.to_string())?;
        per_vec_us.push(t0.elapsed().as_secs_f64() * 1e6 / 64.0);
        out.attempted += 64;
        if outs_f[31 * n_f..] != *pair.want_fwd || outs_a[31 * n_a..] != *pair.want_adj {
            out.failed += 64;
        }
    }
    out.set("core.pipeline.many32_per_vec_us", median(&per_vec_us));
    drop((ins_f, ins_a, outs_f, outs_a));

    let (f2, a2) = pool_baseline(args, 0.1 * args.seconds)?;
    out.set("core.pipeline.apply_2t_fwd_us", f2);
    out.set("core.pipeline.apply_2t_adj_us", a2);

    let untraced_sum_us = untraced.fwd_pooled_p50_us() + untraced.adj_pooled_p50_us();
    out.set("harness.trace_overhead_ratio", traced_apply_sum_us / untraced_sum_us);
    out.set("harness.block_iqr_ratio", untraced.block_iqr_ratio());
    out.set("harness.threads", rayon::current_num_threads() as f64);
    Ok(())
}

/// Body of the `--apply-only` child.
pub fn apply_only(pair: &Pair<'_>, pairs_per_block: usize, seconds: f64) -> Outcome {
    let timed = run_pairs(pair, pairs_per_block, seconds, false);
    let mut out =
        Outcome { attempted: timed.attempted, failed: timed.failed, ..Outcome::default() };
    out.set("fwd_us", timed.fwd_p50_us());
    out.set("adj_us", timed.adj_p50_us());
    out
}
