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
//! Run: `cargo run --release -p fftmatvec-bench --bin bench_fft`
//! Flags:
//! * `-quick` — short samples (the CI smoke mode)
//! * `-out <path>` — write the JSON document (default `BENCH_fft.json`)
//! * `-check <path>` — compare against a baseline document; exits
//!   non-zero on any iterative entry regressing past the tolerance
//! * `-tol <x>` — regression budget for `-check` (default 1.25 = +25%)

use std::hint::black_box;

use fftmatvec_bench::record::{self, Record, FFT};
use fftmatvec_bench::timing::time_pair_ns;
use fftmatvec_bench::Args;
use fftmatvec_fft::{cache, FftDirection, RecursiveFftPlan};
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
        out.push(FFT.row(&[precision, engine], &[n as f64, threads, ns]));
    }
}

fn main() {
    let args = Args::from_env();
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

    record::finish(&FFT, &args, &results, Vec::new());
}
