//! FFT engine benchmark with machine-readable output — the data source
//! for `BENCH_fft.json` and the committed `bench/baseline.json` the CI
//! `bench-smoke` job gates on.
//!
//! Times a single out-of-place complex transform (the unit of work both
//! engines share) at the paper's sizes — `2·N_t` for
//! `N_t ∈ {100, 250, 512, 1000}` plus the power-of-two neighbours — in
//! all four lattice precisions (`f64`, `f32`, and the software-emulated
//! `f16`/`bf16` tiers), through:
//!
//! * `iterative` — the Stockham engine behind [`fftmatvec_fft::FftPlan`]
//!   (plan pulled from the process-wide cache, exactly like the pipeline
//!   call sites);
//! * `recursive` — the seed's recursive engine
//!   ([`fftmatvec_fft::RecursiveFftPlan`]), kept as the baseline the
//!   speedup is measured against.
//!
//! and the batched transforms the block-triangular apply runs — the
//! padded R2C (`BatchedRealFft::forward_padded`, `r2c_padded`) and the
//! unpadded C2R (`inverse_unpadded`, `c2r_unpadded`) of `series` TOSI
//! series of `N_t ∈ {64, 256, 1000, 1024, 4096, 8192}` samples
//! (`size = 2·N_t`), in `f64` and `f32`, ns per series, through:
//!
//! * `lanes` — the driver as the apply runs it: 4 (`f64`) or 8 (`f32`)
//!   series per register for power-of-two sizes up to 16 384 (its
//!   crossover length, the largest size here), per series otherwise;
//! * `per_series` — the same driver with the lanes path switched off
//!   (`BatchedRealFft::per_series`), every series on its own.
//!
//! Their ratio is what sets `fft::batch`'s crossover lengths.
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin bench_fft`
//! Flags:
//! * `-quick` — short samples (the CI smoke mode)
//! * `-out <path>` — write the JSON document (default `BENCH_fft.json`)
//! * `-check <path>` — compare against a baseline document; exits
//!   non-zero on any iterative entry regressing past the tolerance, and
//!   with 2 before measuring if a batched baseline row was measured at
//!   another pool width than this run's (`RAYON_NUM_THREADS`)
//! * `-tol <x>` — regression budget for `-check` (default 1.25 = +25%)

use std::hint::black_box;

use fftmatvec_bench::record::{self, Record, FFT};
use fftmatvec_bench::timing::time_pair_ns;
use fftmatvec_bench::{die, Args};
use fftmatvec_fft::{cache, BatchedRealFft, FftDirection, RecursiveFftPlan};
use fftmatvec_numeric::{bf16, f16, Complex, Precision, Real, SplitMix64};

/// Row label for a precision — the regression gate keys rows on
/// `(size, precision)`, so the label must identify the *tier*, not the
/// byte width (f16 and bf16 share a width but not a format).
fn precision_label(p: Precision) -> &'static str {
    match p {
        Precision::Half => "f16",
        Precision::BFloat16 => "bf16",
        Precision::Single => "f32",
        Precision::Double => "f64",
    }
}

/// Paper transform sizes (`2·N_t`) plus power-of-two neighbours; all are
/// mixed-radix-friendly so both engines can run them.
const SIZES: [usize; 6] = [200, 500, 1024, 2000, 2048, 4096];

/// Measure both engines at size `n` in precision `T`, print the
/// comparison line and append both rows. The timing machinery (batch
/// calibration, interleaved min-of-samples) lives in
/// [`fftmatvec_bench::timing`], shared with every gate binary.
fn measure_size<T: Real>(n: usize, samples: usize, sample_ms: f64, out: &mut Vec<Record>) {
    let precision = precision_label(T::PRECISION);
    let mut rng = SplitMix64::new(n as u64);
    let x: Vec<Complex<T>> = (0..n)
        .map(|_| {
            Complex::new(T::from_f64(rng.uniform(-1.0, 1.0)), T::from_f64(rng.uniform(-1.0, 1.0)))
        })
        .collect();
    let mut y = vec![Complex::<T>::zero(); n];
    let mut y2 = vec![Complex::<T>::zero(); n];

    let plan = cache::complex_plan::<T>(n);
    let mut scratch = vec![Complex::<T>::zero(); plan.scratch_len()];
    let seed_plan = RecursiveFftPlan::<T>::new(n);
    let (iterative, recursive) = time_pair_ns(
        || plan.process(black_box(&x), &mut y, &mut scratch, FftDirection::Forward),
        || seed_plan.process(black_box(&x), &mut y2, FftDirection::Forward),
        samples,
        sample_ms,
    );
    println!(
        "{n:>6} | {precision:>5} | {iterative:>12.0} | {recursive:>12.0} | {:>7.2}x",
        recursive / iterative
    );
    let threads = rayon::current_num_threads() as f64;
    for (engine, ns) in [("iterative", iterative), ("recursive", recursive)] {
        out.push(FFT.row(&["c2c", precision, engine], &[n as f64, 1.0, threads, ns]));
    }
}

/// `N_t` of the batched rows: the `paper_*` series length, two between,
/// the paper's `N_t = 1000` (a half plan `4·2·5³` that ends in an
/// odd-radix pass, so both drivers run per series), `longseries_dd`'s,
/// and the longest the lanes path takes.
const BATCH_NT: [usize; 6] = [64, 256, 1000, 1024, 4096, 8192];

/// Series per batched row: below one lane group, `longseries_dd`'s `N_m`
/// and `N_d` (exactly one `f64` group), the `serve_*` width, and the
/// paper's `N_m`.
const BATCH_SERIES: [usize; 4] = [2, 4, 16, 256];

/// A zeroed slice of `len` values in `store`, starting on a 64-byte line:
/// a batch reads and writes its TOSI rows in line-sized pieces, and where
/// a row starts within a line moves a call by up to ≈ 20 % (measured on
/// the 256-series inverse), which would otherwise differ from one
/// process to the next.
fn line_aligned<E: Copy>(store: &mut Vec<E>, len: usize, zero: E) -> &mut [E] {
    let slack = 64 / std::mem::size_of::<E>();
    *store = vec![zero; len + slack];
    let off = store.as_ptr().align_offset(64).min(slack);
    &mut store[off..off + len]
}

/// Measure the padded R2C and the unpadded C2R of `series` TOSI series of
/// `nt` samples in tier `T`, lanes path against per-series driver, ns per
/// series; print the comparison lines and append the rows.
fn measure_batched<T: Real>(
    nt: usize,
    series: usize,
    samples: usize,
    sample_ms: f64,
    out: &mut Vec<Record>,
) {
    let precision = precision_label(T::PRECISION);
    let lanes = BatchedRealFft::<T>::new(2 * nt);
    let reference = BatchedRealFft::<T>::new(2 * nt).per_series();
    let (mut xs, mut specs, mut ys) = (Vec::new(), Vec::new(), Vec::new());
    let x = line_aligned(&mut xs, nt * series, 0.0);
    SplitMix64::new((nt * series) as u64).fill_uniform(x, -1.0, 1.0);
    let x = &*x;
    let spec = line_aligned(&mut specs, series * lanes.spectrum_len(), Complex::<T>::zero());
    let y = line_aligned(&mut ys, nt * series, 0.0);
    let threads = rayon::current_num_threads() as f64;
    let per_series = |ns: f64| ns / series as f64;
    // Both drivers read and write the same buffers (their outputs are
    // equal on bits), so where those sit in memory favours neither.
    let spec = std::cell::RefCell::new(spec);
    let (fwd_lanes, fwd_series) = time_pair_ns(
        || lanes.forward_padded(black_box(x), series, Precision::Double, &mut spec.borrow_mut()),
        || {
            reference.forward_padded(
                black_box(x),
                series,
                Precision::Double,
                &mut spec.borrow_mut(),
            )
        },
        samples,
        sample_ms,
    );
    let (spec, y) = (&*spec.into_inner(), std::cell::RefCell::new(y));
    let (inv_lanes, inv_series) = time_pair_ns(
        || lanes.inverse_unpadded(black_box(spec), Precision::Double, &mut y.borrow_mut()),
        || reference.inverse_unpadded(black_box(spec), Precision::Double, &mut y.borrow_mut()),
        samples,
        sample_ms,
    );
    for (transform, l, r) in
        [("r2c_padded", fwd_lanes, fwd_series), ("c2r_unpadded", inv_lanes, inv_series)]
    {
        let (l, r) = (per_series(l), per_series(r));
        println!(
            "{:>6} | {series:>6} | {transform:>12} | {precision:>5} | {l:>10.1} | {r:>10.1} | {:>6.2}x",
            2 * nt,
            r / l
        );
        let size = (2 * nt) as f64;
        for (engine, ns) in [("lanes", l), ("per_series", r)] {
            out.push(FFT.row(&[transform, precision, engine], &[size, series as f64, threads, ns]));
        }
    }
}

/// Refuse a `-check` baseline whose batched rows were measured at another
/// pool width than this run: a batch above the parallel threshold (the
/// 256-series rows) runs its groups on every pool thread, so its ratio
/// means something else at another width. Exits 2, naming both widths.
fn require_baseline_pool_width(args: &Args) {
    let check: String = args.get("check", String::new());
    if check.is_empty() {
        return;
    }
    let text = std::fs::read_to_string(&check)
        .unwrap_or_else(|e| die(format!("reading baseline {check}: {e}")));
    let threads = rayon::current_num_threads();
    for row in FFT.parse_document(&text) {
        let width = FFT.num(&row, "threads") as usize;
        if FFT.render(&row, "transform") != "c2c" && width != threads {
            die(format!(
                "unusable baseline {check}: batched row {} was measured at {width} pool \
                 threads, this run has {threads} (set RAYON_NUM_THREADS={width})",
                FFT.key_of(&row)
            ));
        }
    }
}

fn main() {
    let args = Args::from_env();
    require_baseline_pool_width(&args);
    let quick = args.has("quick");
    let (samples, sample_ms) = if quick { (7, 10.0) } else { (15, 20.0) };

    println!(
        "FFT engine benchmark ({} mode, {} pool threads) — ns per forward transform",
        if quick { "quick" } else { "full" },
        rayon::current_num_threads()
    );
    let header = format!(
        "{:>6} | {:>5} | {:>12} | {:>12} | {:>8}",
        "size", "prec", "iterative", "recursive", "speedup"
    );
    println!("{header}");
    fftmatvec_bench::rule(header.len());

    let mut results = Vec::new();
    for &n in &SIZES {
        measure_size::<f64>(n, samples, sample_ms, &mut results);
        measure_size::<f32>(n, samples, sample_ms, &mut results);
        // Software-emulated 16-bit tiers: slower than f32 on the CPU (the
        // emulation converts per element) — the columns exist to key the
        // gate and to carry through once a GPU backend makes them fast.
        measure_size::<f16>(n, samples, sample_ms, &mut results);
        measure_size::<bf16>(n, samples, sample_ms, &mut results);
    }
    println!();

    println!("Batched padded R2C / unpadded C2R — ns per series, lanes path vs per-series driver");
    let header = format!(
        "{:>6} | {:>6} | {:>12} | {:>5} | {:>10} | {:>10} | {:>7}",
        "size", "series", "transform", "prec", "lanes", "per_series", "speedup"
    );
    println!("{header}");
    fftmatvec_bench::rule(header.len());
    // A batch walks far more memory per call than one transform, so its
    // minimum settles more slowly: three times the samples.
    let samples = 3 * samples;
    for &nt in &BATCH_NT {
        for &series in &BATCH_SERIES {
            measure_batched::<f64>(nt, series, samples, sample_ms, &mut results);
            measure_batched::<f32>(nt, series, samples, sample_ms, &mut results);
        }
    }
    println!();

    record::finish(&FFT, &args, &results, Vec::new());
}
