//! Multi-level Toeplitz gate: the CI check that the FFT-based
//! realization delivers its promises on real hardware.
//!
//! For each `(shape, direction)` row the harness builds one two-level
//! generator two ways — the circulant-embedding operator and the dense
//! reference assembly — then:
//!
//! * checks the operator against the dense oracle in double
//!   (**differential gate**: relative L2 error below 1e-12, absolute on
//!   any host — a row is only recorded after it passes);
//! * times the operator and the dense matvec in the same process, and
//!   gates the dense/full speedup — a same-session machine-normalized
//!   ratio — against the committed `bench/baseline_toeplitz.json`;
//! * times a forward + inverse pass of the real, head-pruned N-d engine
//!   the operator runs (with the apply's head boxes) against the complex
//!   whole-grid transform it replaced, interleaved, after checking that
//!   both produce the same spectrum (**real-nd floor**: complex ÷ real
//!   must stay at or above 2.0 on the power-of-two rows — a same-session
//!   ratio, so a fallback to full-grid work fails on any host);
//! * records the operator's peak workspace bytes from the pool
//!   diagnostics (a deterministic count).
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin bench_toeplitz`
//! Flags:
//! * `-quick` — shorter timing windows (CI smoke mode)
//! * `-out <path>` — results document (default `BENCH_toeplitz.json`)
//! * `-check <path>` — baseline document to gate against
//! * `-tol <x>` — allowed relative speedup loss vs the baseline
//!   (default 1.5)
//!
//! The real-nd bar is the constant [`REAL_ND_FLOOR`] (2.0).

use fftmatvec_bench::record::{self, Better, Record, REAL_ND_FLOOR, TOEPLITZ};
use fftmatvec_bench::{rule, timing, Args};
use fftmatvec_core::{LinearOperator, OpDirection};
use fftmatvec_fft::{FftDirection, NdFft, RealNdFft};
use fftmatvec_numeric::vecmath::rel_l2_error;
use fftmatvec_numeric::{Precision, SplitMix64, C64};
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

/// Time one forward + inverse pass of the real, head-pruned engine (head
/// boxes `head_in` → `head_out`, as the apply reads its input and writes
/// its output) against the complex whole-grid one on the `[m1, m2]`
/// circulant grid, interleaved. Before timing, both transform the same
/// zero-embedded random head box and must agree on every stored bin.
fn time_engines(
    (m1, m2): (usize, usize),
    (head_in, head_out): ([usize; 2], [usize; 2]),
    samples: usize,
    sample_ms: f64,
    failures: &mut Vec<String>,
) -> (f64, f64) {
    let real_nd = RealNdFft::<f64>::new(&[m1, m2]);
    let complex_nd = NdFft::<f64>::new(&[m1, m2]);
    let mut input = vec![0.0; head_in[0] * head_in[1]];
    SplitMix64::new(23).fill_uniform(&mut input, -1.0, 1.0);
    let mut output = vec![0.0; head_out[0] * head_out[1]];
    let mut spec = vec![C64::new(0.0, 0.0); real_nd.spectrum_len()];
    let stage_len = real_nd.stage_len(&head_in).max(real_nd.stage_len(&head_out));
    let mut stage = vec![C64::new(0.0, 0.0); stage_len];
    let mut grid = vec![C64::new(0.0, 0.0); m1 * m2];
    for (g, row) in grid.chunks_exact_mut(m2).zip(input.chunks_exact(head_in[1])) {
        g.iter_mut().zip(row).for_each(|(g, &r)| *g = C64::new(r, 0.0));
    }
    let mut partner = grid.clone();

    real_nd.forward(&head_in, &input, Precision::Double, &mut spec, &mut stage);
    complex_nd.process(&mut grid, &mut partner, FftDirection::Forward);
    // Stored bin (k2, k1) of the rotated half is bin (k1, k2) of the grid.
    let scale = grid.iter().map(|z| z.abs()).fold(0.0, f64::max);
    let worst =
        (0..spec.len()).map(|i| (spec[i] - grid[(i % m1) * m2 + i / m1]).abs()).fold(0.0, f64::max);
    if !record::within(worst, 1e-11 * scale, Better::Lower) {
        failures
            .push(format!("engines: real vs complex spectrum on {m1}x{m2} differ by {worst:e}"));
    }
    complex_nd.process(&mut grid, &mut partner, FftDirection::Inverse);

    timing::time_pair_ns(
        || {
            real_nd.forward(&head_in, &input, Precision::Double, &mut spec, &mut stage);
            real_nd.inverse(&head_out, &mut spec, &mut stage, Precision::Double, &mut output);
        },
        || {
            complex_nd.process(&mut grid, &mut partner, FftDirection::Forward);
            complex_nd.process(&mut grid, &mut partner, FftDirection::Inverse);
        },
        samples,
        sample_ms,
    )
}

/// Measure and print one row: differential-check the operator against
/// the dense oracle (appending to `failures`), time it and the dense
/// matvec in the same session, time the two N-d engines, read the peak
/// workspace.
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
    let full = TwoLevelToeplitz::builder(gen).build().expect("valid shapes");

    let shape = format!("{}x{}x{}x{}", outer.0, outer.1, inner.0, inner.1);

    let (in_len, out_len) = full.shape().io_lens(dir);
    let mut x = vec![0.0; in_len];
    SplitMix64::new(17).fill_uniform(&mut x, -1.0, 1.0);
    let mut y_full = vec![0.0; out_len];
    let mut y_dense = vec![0.0; out_len];

    // Differential gate first: timing a wrong answer is meaningless.
    full.apply_into(dir, &x, &mut y_full).expect("valid shapes");
    dense_apply(&dense, rows, cols, dir, &x, &mut y_dense);
    let err = rel_l2_error(&y_full, &y_dense);
    if err.is_nan() || err >= 1e-12 {
        failures.push(format!("differential: {shape} {} has rel err {err:e}", dir_name(dir)));
    }

    let full_ns = timing::min_ns(
        || full.apply_into(dir, &x, &mut y_full).expect("valid shapes"),
        samples,
        sample_ms,
    );
    let dense_ns = timing::min_ns(
        || dense_apply(&dense, rows, cols, dir, &x, &mut y_dense),
        samples,
        sample_ms,
    );
    let sym = full.symbol_shared();
    let heads = match dir {
        OpDirection::Forward => ([outer.1, inner.1], [outer.0, inner.0]),
        OpDirection::Adjoint => ([outer.0, inner.0], [outer.1, inner.1]),
    };
    let (real_ns, complex_ns) =
        time_engines((sym.work_dims()[0], sym.work_dims()[1]), heads, samples, sample_ms, failures);

    let peak = full.workspace_peak_bytes();
    println!(
        "{shape:<14} {:>8} {full_ns:>11.0} {dense_ns:>12.0} {:>9.2} {real_ns:>11.0} \
         {complex_ns:>13.0} {:>8.2} {peak:>10}",
        dir_name(dir),
        dense_ns / full_ns,
        complex_ns / real_ns,
    );
    TOEPLITZ.row(&[&shape, dir_name(dir)], &[full_ns, dense_ns, real_ns, complex_ns, peak as f64])
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
        "{:<14} {:>8} {:>11} {:>12} {:>9} {:>11} {:>13} {:>8} {:>10}",
        "shape",
        "dir",
        "full_ns",
        "dense_ns",
        "speedup",
        "real_fftn",
        "complex_fftn",
        "cplx/re",
        "full_peak"
    );
    println!("{header}");
    rule(header.len());

    let mut failures = Vec::new();
    let results: Vec<Record> = rows
        .iter()
        .map(|&(outer, inner, dir)| run_row(outer, inner, dir, samples, sample_ms, &mut failures))
        .collect();
    // The floor is stated for the power-of-two grids; the small odd row's
    // transforms are a few microseconds of mixed-radix work either way.
    let pow2: Vec<Record> = rows
        .iter()
        .zip(&results)
        .filter(|(&(outer, ..), _)| outer.0 >= 32)
        .map(|(_, r)| r.clone())
        .collect();
    failures.extend(TOEPLITZ.threshold_failures(&pow2, &REAL_ND_FLOOR));
    record::finish(&TOEPLITZ, &args, &results, failures);
}
