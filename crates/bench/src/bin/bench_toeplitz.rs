//! Multi-level Toeplitz gate: the CI check that the FFT-based
//! realizations deliver their two promises on real hardware.
//!
//! For each `(shape, direction)` row the harness builds one two-level
//! generator three ways — full circulant embedding, the split-FFT
//! memory-optimized path, and the dense reference assembly — then:
//!
//! * checks both FFT paths against the dense oracle in double
//!   (**differential gate**: relative L2 error below 1e-12, absolute on
//!   any host — a row is only recorded after it passes);
//! * reads both paths' peak workspace bytes from the pool diagnostics
//!   (**scratch gate**: the split path must stay at or under 0.75x the
//!   full embedding's peak, absolute — deterministic byte counts, no
//!   timing noise);
//! * times the full and split paths interleaved and the dense matvec in
//!   the same process, and gates the dense/full speedup — a
//!   same-session machine-normalized ratio — against the committed
//!   `bench/baseline_toeplitz.json`.
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin bench_toeplitz`
//! Flags:
//! * `-quick` — shorter timing windows (CI smoke mode)
//! * `-out <path>` — results document (default `BENCH_toeplitz.json`)
//! * `-check <path>` — baseline document to gate against
//! * `-tol <x>` — allowed relative speedup loss vs the baseline
//!   (default 1.5)
//!
//! The split-scratch bar is the constant [`TOEPLITZ_SCRATCH`] (0.75).

use fftmatvec_bench::record::{self, Record, TOEPLITZ, TOEPLITZ_SCRATCH};
use fftmatvec_bench::{rule, timing, Args};
use fftmatvec_core::{LinearOperator, OpDirection};
use fftmatvec_numeric::vecmath::rel_l2_error;
use fftmatvec_numeric::SplitMix64;
use fftmatvec_toeplitz::{ToeplitzGenerator, TwoLevelToeplitz};

/// One measurement row: two-level extents and the apply direction.
type Row = ((usize, usize), (usize, usize), OpDirection);

/// Random two-level generator with the main diagonal lifted — keeps the
/// dense reference well scaled so the differential check's relative
/// error is meaningful.
fn two_level_gen(outer: (usize, usize), inner: (usize, usize), seed: u64) -> ToeplitzGenerator {
    let inner_diags = inner.0 + inner.1 - 1;
    let n = (outer.0 + outer.1 - 1) * inner_diags;
    let mut diags = vec![0.0; n];
    SplitMix64::new(seed).fill_uniform(&mut diags, -1.0, 1.0);
    diags[(outer.1 - 1) * inner_diags + (inner.1 - 1)] += 4.0;
    ToeplitzGenerator::two_level(outer, inner, diags).expect("valid two-level generator")
}

/// Dense oracle apply (`y = A·x` or `y = Aᵀ·x`; the generator is real,
/// so adjoint is transpose).
fn dense_apply(a: &[f64], rows: usize, cols: usize, dir: OpDirection, x: &[f64], y: &mut [f64]) {
    match dir {
        OpDirection::Forward => {
            for (r, yr) in y.iter_mut().enumerate() {
                *yr = (0..cols).map(|c| a[r * cols + c] * x[c]).sum();
            }
        }
        OpDirection::Adjoint => {
            for (c, yc) in y.iter_mut().enumerate() {
                *yc = (0..rows).map(|r| a[r * cols + c] * x[r]).sum();
            }
        }
    }
}

fn dir_name(dir: OpDirection) -> &'static str {
    match dir {
        OpDirection::Forward => "forward",
        OpDirection::Adjoint => "adjoint",
    }
}

/// Measure and print one row: differential-check both FFT paths against
/// the dense oracle (appending to `failures`), read their peak
/// workspaces, then time full/split interleaved and the dense matvec in
/// the same session.
fn run_row(
    outer: (usize, usize),
    inner: (usize, usize),
    dir: OpDirection,
    samples: usize,
    sample_ms: f64,
    failures: &mut Vec<String>,
) -> Record {
    let gen = two_level_gen(outer, inner, 11);
    let (rows, cols) = (gen.rows(), gen.cols());
    let dense = gen.dense();
    let full = TwoLevelToeplitz::builder(gen.clone()).build().expect("valid shapes");
    let split = TwoLevelToeplitz::builder(gen).split_fft(true).build().expect("valid shapes");

    let shape = format!("{}x{}x{}x{}", outer.0, outer.1, inner.0, inner.1);

    let (in_len, out_len) = full.shape().io_lens(dir);
    let mut x = vec![0.0; in_len];
    SplitMix64::new(17).fill_uniform(&mut x, -1.0, 1.0);
    let mut y_full = vec![0.0; out_len];
    let mut y_split = vec![0.0; out_len];
    let mut y_dense = vec![0.0; out_len];

    // Differential gate first: timing a wrong answer is meaningless.
    full.apply_into(dir, &x, &mut y_full).expect("valid shapes");
    split.apply_into(dir, &x, &mut y_split).expect("valid shapes");
    dense_apply(&dense, rows, cols, dir, &x, &mut y_dense);
    for (path, y) in [("full", &y_full), ("split", &y_split)] {
        let err = rel_l2_error(y, &y_dense);
        if err.is_nan() || err >= 1e-12 {
            failures.push(format!(
                "differential: {path} path at {shape} {} has rel err {err:e}",
                dir_name(dir)
            ));
        }
    }

    let (full_ns, split_ns) = timing::time_pair_ns(
        || full.apply_into(dir, &x, &mut y_full).expect("valid shapes"),
        || split.apply_into(dir, &x, &mut y_split).expect("valid shapes"),
        samples,
        sample_ms,
    );
    let dense_ns = timing::min_ns(
        || dense_apply(&dense, rows, cols, dir, &x, &mut y_dense),
        samples,
        sample_ms,
    );

    let (full_peak, split_peak) = (full.workspace_peak_bytes(), split.workspace_peak_bytes());
    println!(
        "{shape:<14} {:>8} {full_ns:>11.0} {split_ns:>11.0} {dense_ns:>12.0} {:>9.2} \
         {full_peak:>10} {split_peak:>10} {:>7.0}%",
        dir_name(dir),
        dense_ns / full_ns,
        100.0 * split_peak as f64 / full_peak as f64
    );
    TOEPLITZ.row(
        &[&shape, dir_name(dir)],
        &[full_ns, split_ns, dense_ns, full_peak as f64, split_peak as f64],
    )
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let (samples, sample_ms) = if quick { (5, 20.0) } else { (9, 40.0) };

    // Grids past the FFT/dense crossover (n >= 32 on a 2-D square grid,
    // where the embedding lands on power-of-two transform lengths), plus
    // one odd/non-square row exercising the padding edge cases; the
    // adjoint row checks that the conjugate-spectrum path keeps the same
    // profile.
    let rows: &[Row] = &[
        ((32, 32), (32, 32), OpDirection::Forward),
        ((32, 32), (32, 32), OpDirection::Adjoint),
        ((64, 64), (64, 64), OpDirection::Forward),
        ((15, 11), (13, 9), OpDirection::Forward),
    ];

    let header = format!(
        "{:<14} {:>8} {:>11} {:>11} {:>12} {:>9} {:>10} {:>10} {:>8}",
        "shape",
        "dir",
        "full_ns",
        "split_ns",
        "dense_ns",
        "speedup",
        "full_peak",
        "split_peak",
        "scratch"
    );
    println!("{header}");
    rule(header.len());

    let mut failures = Vec::new();
    let results: Vec<Record> = rows
        .iter()
        .map(|&(outer, inner, dir)| run_row(outer, inner, dir, samples, sample_ms, &mut failures))
        .collect();
    failures.extend(TOEPLITZ.threshold_failures(&results, &TOEPLITZ_SCRATCH));
    record::finish(&TOEPLITZ, &args, &results, failures);
}
