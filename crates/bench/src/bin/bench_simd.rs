//! SIMD-vs-scalar ratio gate: the CI check that the runtime-dispatched
//! vector kernels actually beat the portable scalar paths they shadow.
//!
//! Dispatch is a process-global runtime switch
//! ([`fftmatvec_numeric::simd::set_active_level`]), so — unlike the
//! thread-count gates — no re-exec is needed: each kernel is timed with
//! the two legs *interleaved* (portable, vector, portable, ...), which
//! cancels machine-state drift out of the speedup ratio. The measured
//! rows cover the three vectorized layers:
//!
//! * `convert_*` — the batched f16/bf16 ↔ f32 buffer casts;
//! * `fft_forward` — a full iterative complex transform (radix-4/radix-2
//!   butterfly stages) per precision tier, and `fft_real_forward_n<N>` —
//!   the pipeline's R2C transform at the `bench_e2e` lengths and the
//!   paper's `N_t = 1000` (mixed radix), `f32`/`f64`;
//! * `sbgemv_freqminor_<nd>x<nm>x<nfreq>` — the SBGEMV every apply runs,
//!   [`sbgemv_freq_minor`] on the frequency-minor `F̂` every
//!   `BlockToeplitzOperator` stores, one F and one F\* call per sample,
//!   on the `bench_e2e` operator shapes and a few blocks between them
//!   (`Complex<f32>` / `Complex<f64>`); both legs' outputs are compared on
//!   bits before they are timed;
//! * `pointwise_mul` — the backend's symbol multiply,
//!   `fftmatvec_numeric::simd::pointwise_mul_assign`: a vector kernel per
//!   tier against the portable scalar loop.
//!
//! Figure 1's block kernel (`blas::sbgemv`) has no row: it has no vector
//! tile, only the scalar `fma_pass!` bodies every level shares.
//!
//! The `layout_*` rows reuse the two legs for a different pair: the
//! element-by-element loop the pad / reorder / unpad kernels used to be
//! ([`naive_transpose_map`], kept as oracle and denominator) against the
//! tiled `core::layout` pass, on the `bench_e2e` `paper_dd` buffers
//! (256 series × 64 steps, 65 frequencies, f64), both at the active level.
//!
//! Four checks, mirroring the other bench gates:
//! * **floor** — the 16-bit conversion and butterfly kernels, the
//!   pointwise multiply and `layout_reorder_out` must be no slower than
//!   their first leg ([`SIMD_FLOOR`], 1.0×);
//! * **layout floor** — the three layout passes with a power-of-two
//!   destination stride must beat the naive loop by
//!   [`LAYOUT_TILE_FLOOR`] (2.0×; measured 3.8–4.8×);
//! * **vector floor** — the `f32`/`f64` transforms and the
//!   `sbgemv_freqminor_*` rows must beat the portable level by
//!   [`SIMD_FFT_FLOOR`] (3.0×): every pass of theirs is a vector or
//!   FMA-context pass, and a silent fall-back of one of them to the plain
//!   scalar path costs more than that margin;
//! * **baseline** — every row's speedup must stay within `-tol` of the
//!   committed `bench/baseline_simd.json`.
//!
//! On a host without AVX2 + FMA (or with `FFTMATVEC_SIMD=portable`) the
//! binary reports SKIPPED (exit 0) with the measured numbers still in the
//! log, like the parallel-speedup gate on a 1-core runner.
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin bench_simd`
//! Flags:
//! * `-out <path>` — write the measured document (default
//!   `BENCH_simd.json`)
//! * `-check <path>` — gate against a committed baseline document
//! * `-tol <x>` — allowed speedup fade vs the baseline (default 1.25)
//! * `-quick` — shorter samples (the CI smoke mode)

use std::hint::black_box;

use fftmatvec_backend::{CpuPool, DeviceBackend};
use fftmatvec_bench::record::{self, Record, LAYOUT_TILE_FLOOR, SIMD, SIMD_FFT_FLOOR, SIMD_FLOOR};
use fftmatvec_bench::timing::time_pair_ns;
use fftmatvec_bench::{naive_transpose_map, rule, Args};
use fftmatvec_blas::{sbgemv_freq_minor, GemvOp};
use fftmatvec_core::layout;
use fftmatvec_fft::{FftPlan, RealFftPlan};
use fftmatvec_numeric::simd::{
    active_level, narrow_f32_to_bf16, narrow_f32_to_f16, set_active_level, widen_bf16_to_f32,
    widen_f16_to_f32, SimdLevel,
};
use fftmatvec_numeric::{
    bf16, f16, Complex, ComplexBuffer, Precision, Real, RealBuffer, Scalar, SplitMix64, C32, C64,
};

/// Elements per conversion call. Deliberately L1-resident (4096 f32 =
/// 16 KiB out + 8 KiB in): at larger sizes both legs saturate memory
/// bandwidth and the ratio collapses toward 1.0 regardless of compute
/// width, which is the memory wall, not a kernel regression.
const CONV_LEN: usize = 1 << 12;
/// Complex transform length of the `fft_forward` rows: five radix-4
/// stages, the first (`s == 1`) with lanes across butterflies, the rest
/// across the inner stride — and for the 16-bit tiers a scalar first
/// stage in an FMA context.
const FFT_N: usize = 1024;
/// Real transform lengths of the `fft_real_forward_n<N>` rows: the
/// `bench_e2e` `paper_*`/`serve_*` (128) and `longseries_dd` (8192)
/// shapes, and the paper's own `N_t = 1000` (2000 = 2·4·2·5³: three
/// table-driven radix-5 stages).
const REAL_FFT_NS: [usize; 3] = [128, 2000, 8192];
/// `N_d × N_m × (N_t + 1)` of the `sbgemv_freqminor_*` rows: the
/// `bench_e2e` `longseries_dd` and `serve_*` operators, an odd block, 8×8,
/// 16×16, 16×64 and the `paper_*` operator's 16×256.
const FREQMINOR_BLOCKS: [(usize, usize, usize); 7] = [
    (4, 4, 4097),
    (2, 16, 65),
    (3, 5, 1025),
    (8, 8, 513),
    (16, 16, 65),
    (16, 64, 65),
    (16, 256, 65),
];
/// Complex elements per `pointwise_mul` call (`toeplitz_2level`'s grid).
const POINTWISE_LEN: usize = 1 << 14;
/// The `paper_dd` forward input: `N_m` series of `N_t` steps.
const LAYOUT_SHAPE: (usize, usize) = (256, 64);

/// Time two legs interleaved and append the row `first / second`.
fn measure_legs(
    rows: &mut Vec<Record>,
    (kernel, precision, level): (&str, &str, SimdLevel),
    (first_name, first): (&str, impl FnMut()),
    second: impl FnMut(),
    samples: usize,
    sample_ms: f64,
) {
    let (first_ns, second_ns) = time_pair_ns(first, second, samples, sample_ms);
    println!(
        "{kernel:<22} {precision:<5} {first_name:<8} {first_ns:>12.1} ns   {} {second_ns:>12.1} ns   \
         {:>6.2}x",
        level.name(),
        first_ns / second_ns
    );
    rows.push(SIMD.row(&[kernel, precision, level.name()], &[first_ns, second_ns]));
}

/// Time `work` with dispatch forced portable vs forced to `level`,
/// interleaved, and append the row.
fn measure<F: FnMut()>(
    rows: &mut Vec<Record>,
    kernel: &str,
    precision: &str,
    level: SimdLevel,
    work: F,
    samples: usize,
    sample_ms: f64,
) {
    // Both interleaved legs drive the same workload closure; the RefCell
    // lets the two `FnMut` legs share it.
    let work = std::cell::RefCell::new(work);
    let at = |leg: SimdLevel| {
        let work = &work;
        move || {
            set_active_level(leg);
            (work.borrow_mut())();
        }
    };
    let portable = ("portable", at(SimdLevel::Portable));
    measure_legs(rows, (kernel, precision, level), portable, at(level), samples, sample_ms);
    set_active_level(level);
}

/// The whole-buffer cast kernels, each driven through the same
/// [`measure`] helper (the public entry points read the active level, so
/// forcing dispatch works the same way as for the fused kernels).
fn measure_conversions(rows: &mut Vec<Record>, level: SimdLevel, samples: usize, ms: f64) {
    let mut rng = SplitMix64::new(41);
    let f32s: Vec<f32> = (0..CONV_LEN).map(|_| rng.uniform(-1.0, 1.0) as f32).collect();
    let mut f16s = vec![f16::from_f32(0.0); CONV_LEN];
    let mut bf16s = vec![bf16::from_f32(0.0); CONV_LEN];
    narrow_f32_to_f16(&f32s, &mut f16s);
    narrow_f32_to_bf16(&f32s, &mut bf16s);
    let mut wide = vec![0.0f32; CONV_LEN];

    {
        let (src, dst) = (&f16s, &mut wide);
        measure(
            rows,
            "convert_widen",
            "f16",
            level,
            || widen_f16_to_f32(black_box(src), black_box(dst)),
            samples,
            ms,
        );
    }
    {
        let (src, dst) = (&bf16s, &mut wide);
        measure(
            rows,
            "convert_widen",
            "bf16",
            level,
            || widen_bf16_to_f32(black_box(src), black_box(dst)),
            samples,
            ms,
        );
    }
    {
        let (src, dst) = (&f32s, &mut f16s);
        measure(
            rows,
            "convert_narrow",
            "f16",
            level,
            || narrow_f32_to_f16(black_box(src), black_box(dst)),
            samples,
            ms,
        );
    }
    {
        let (src, dst) = (&f32s, &mut bf16s);
        measure(
            rows,
            "convert_narrow",
            "bf16",
            level,
            || narrow_f32_to_bf16(black_box(src), black_box(dst)),
            samples,
            ms,
        );
    }
}

/// One transform row: complex out-of-place forward of length `n`
/// (`fft_forward`, the historical `n = 1024` row name) or, with `real`,
/// the R2C forward (`fft_real_forward_n<n>`).
fn measure_fft<T: Real>(
    rows: &mut Vec<Record>,
    (n, real): (usize, bool),
    precision: &str,
    level: SimdLevel,
    samples: usize,
    ms: f64,
) {
    let mut rng = SplitMix64::new(43);
    let signal: Vec<T> = (0..2 * n).map(|_| T::from_f64(rng.uniform(-1.0, 1.0))).collect();
    if real {
        let plan = RealFftPlan::<T>::new(n);
        let mut output = vec![Complex::<T>::zero(); plan.spectrum_len()];
        let mut scratch = vec![Complex::<T>::zero(); plan.scratch_len()];
        let kernel = format!("fft_real_forward_n{n}");
        let work = || plan.forward(black_box(&signal[..n]), black_box(&mut output), &mut scratch);
        measure(rows, &kernel, precision, level, work, samples, ms);
    } else {
        let input: Vec<Complex<T>> = signal.chunks(2).map(|c| Complex::new(c[0], c[1])).collect();
        let plan = FftPlan::<T>::new(n);
        let mut output = vec![Complex::<T>::zero(); n];
        let mut scratch = vec![Complex::<T>::zero(); plan.scratch_len()];
        let work = || plan.forward(black_box(&input), black_box(&mut output), &mut scratch);
        measure(rows, "fft_forward", precision, level, work, samples, ms);
    }
}

/// The backend's pointwise symbol multiply in tier `p`. The symbol has
/// unit modulus so the grid keeps its magnitude over millions of calls
/// (a decaying grid ends in subnormals and measures the microcode assist).
fn measure_pointwise(
    rows: &mut Vec<Record>,
    p: Precision,
    precision: &str,
    level: SimdLevel,
    samples: usize,
    ms: f64,
) {
    let mut rng = SplitMix64::new(53);
    let unit: Vec<C64> = (0..POINTWISE_LEN)
        .map(|_| rng.uniform(0.0, std::f64::consts::TAU))
        .map(|t| C64::new(t.cos(), t.sin()))
        .collect();
    let sym = ComplexBuffer::from_c64(p, &unit);
    let mut grid = ComplexBuffer::from_c64(p, &unit);
    let pool = CpuPool::new();
    let work = || pool.pointwise_multiply(black_box(&mut grid), &sym, false).expect("same tier");
    measure(rows, "pointwise_mul", precision, level, work, samples, ms);
}

/// The four fused memory operations of one `paper_dd` apply, naive loop
/// vs tiled pass, each checked against the naive result before it is
/// timed.
fn measure_layout(rows: &mut Vec<Record>, level: SimdLevel, samples: usize, ms: f64) {
    let (ns, nt) = LAYOUT_SHAPE;
    let (n2, nf) = (2 * nt, nt + 1);
    let p = Precision::Double;
    let mut rng = SplitMix64::new(59);
    let mut real = |len: usize| -> Vec<f64> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
    let (m, time) = (real(ns * nt), RealBuffer::F64(real(ns * n2)));
    let spec = real(2 * ns * nf).chunks(2).map(|z| C64::new(z[0], z[1])).collect();
    let spec = ComplexBuffer::C64(spec);
    let (padded, spectra) = (time.as_f64().expect("f64 tier"), spec.as_c64().expect("c64 tier"));
    let mut row = |kernel: &str, naive: &mut dyn FnMut(), tiled: &mut dyn FnMut()| {
        measure_legs(rows, (kernel, "f64", level), ("naive", naive), tiled, samples, ms);
    };

    // Pad: the naive leg zero-fills first, as the library's `reset` does.
    let mut naive_out = vec![f64::NAN; ns * n2];
    let mut tiled_out = RealBuffer::zeros(p, 0);
    let naive = |out: &mut [f64]| {
        out.fill(0.0);
        naive_transpose_map(black_box(&m), ns, out, n2, nt, ns, |v| v);
    };
    naive(&mut naive_out);
    layout::pad_input_into(&m, ns, nt, p, &mut tiled_out);
    assert_eq!(tiled_out, RealBuffer::F64(naive_out.clone()), "layout_pad");
    row("layout_pad", &mut || naive(&mut naive_out), &mut || {
        layout::pad_input_into(black_box(&m), ns, nt, p, &mut tiled_out)
    });

    // Reorder-in scatters at stride 256; reorder-out (the same buffer
    // read as 65 × 256) at stride 65.
    let mut naive_out = vec![C64::zero(); ns * nf];
    let mut tiled_out = ComplexBuffer::zeros(p, 0);
    type Reorder = fn(&ComplexBuffer, usize, usize, Precision, &mut ComplexBuffer);
    let reorders: [(&str, Reorder, usize, usize); 2] = [
        ("layout_reorder_in", layout::spectrum_to_batch_into, ns, nf),
        ("layout_reorder_out", layout::batch_to_spectrum_into, nf, ns),
    ];
    for (kernel, reorder, outer, inner) in reorders {
        let naive = |out: &mut [C64]| {
            naive_transpose_map(black_box(spectra), inner, out, outer, outer, inner, |v| v)
        };
        let tiled = |out: &mut ComplexBuffer| reorder(black_box(&spec), ns, nf, p, out);
        naive(&mut naive_out);
        tiled(&mut tiled_out);
        assert_eq!(tiled_out, ComplexBuffer::C64(naive_out.clone()), "{kernel}");
        row(kernel, &mut || naive(&mut naive_out), &mut || tiled(&mut tiled_out));
    }

    let (mut naive_out, mut tiled_out) = (vec![0.0; ns * nt], vec![0.0; ns * nt]);
    let naive =
        |out: &mut [f64]| naive_transpose_map(black_box(padded), n2, out, ns, ns, nt, |v| v);
    naive(&mut naive_out);
    layout::unpad_output_into(&time, ns, nt, p, &mut tiled_out);
    assert_eq!(tiled_out, naive_out, "layout_unpad");
    row("layout_unpad", &mut || naive(&mut naive_out), &mut || {
        layout::unpad_output_into(black_box(&time), ns, nt, p, &mut tiled_out)
    });
}

/// One `sbgemv_freqminor_*` row: one F and one F\* [`sbgemv_freq_minor`]
/// call on one operator shape, spectra in and spectra out, at the portable
/// level against the active one; the two legs' outputs are compared on
/// bits before they are timed.
fn measure_freq_minor<S: Scalar>(
    rows: &mut Vec<Record>,
    (nd, nm, nfreq): (usize, usize, usize),
    precision: &str,
    level: SimdLevel,
    samples: usize,
    ms: f64,
) {
    let mut rng = SplitMix64::new(61);
    let mut fill = |len: usize| -> Vec<S> {
        (0..len)
            .map(|_| S::from_f64_parts(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect()
    };
    let a = fill(nd * nm * nfreq);
    // (op, input spectra) of F and of F*, and their output spectra.
    let dirs = [(GemvOp::NoTrans, fill(nm * nfreq)), (GemvOp::ConjTrans, fill(nd * nfreq))];
    let mut ys = [vec![S::zero(); nd * nfreq], vec![S::zero(); nm * nfreq]];
    let apply = |ys: &mut [Vec<S>; 2]| {
        for ((op, x), y) in dirs.iter().zip(ys) {
            sbgemv_freq_minor(*op, black_box(&a), black_box(x), y, nd, nm, nfreq);
        }
    };
    let bits = |ys: &[Vec<S>; 2]| -> Vec<(u64, u64)> {
        let parts = ys.iter().flatten().map(|s| s.to_f64_parts());
        parts.map(|(re, im)| (re.to_bits(), im.to_bits())).collect()
    };
    let kernel = format!("sbgemv_freqminor_{nd}x{nm}x{nfreq}");
    set_active_level(SimdLevel::Portable);
    apply(&mut ys);
    let portable = bits(&ys);
    set_active_level(level);
    apply(&mut ys);
    assert!(bits(&ys) == portable, "{kernel} {precision}: {} differs from portable", level.name());
    measure(rows, &kernel, precision, level, || apply(&mut ys), samples, ms);
}

/// Is `r` a row of a 16-bit tier?
fn sixteen_bit(r: &Record) -> bool {
    matches!(SIMD.render(r, "precision").as_str(), "f16" | "bf16")
}

/// Rows [`SIMD_FLOOR`] applies to: the 16-bit conversion and butterfly
/// kernels, the pointwise multiply and the one layout pass whose
/// destination stride is not a power of two.
fn floor_gated(r: &Record) -> bool {
    let kernel = SIMD.render(r, "kernel");
    let sixteen = sixteen_bit(r) && (kernel.starts_with("convert") || kernel.starts_with("fft"));
    sixteen || kernel == "pointwise_mul" || kernel == "layout_reorder_out"
}

/// Rows [`LAYOUT_TILE_FLOOR`] applies to: the layout passes with a
/// power-of-two destination stride.
fn layout_floor_gated(r: &Record) -> bool {
    matches!(SIMD.render(r, "kernel").as_str(), "layout_pad" | "layout_reorder_in" | "layout_unpad")
}

/// Rows [`SIMD_FFT_FLOOR`] applies to: the `f32`/`f64` transforms and the
/// frequency-minor SBGEMV.
fn vector_floor_gated(r: &Record) -> bool {
    let kernel = SIMD.render(r, "kernel");
    (!sixteen_bit(r) && kernel.starts_with("fft")) || kernel.starts_with("sbgemv_freqminor_")
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let (samples, sample_ms) = if quick { (7, 10.0) } else { (11, 25.0) };

    let level = active_level();
    println!(
        "SIMD ratio gate: portable scalar vs {} (min {:.2}x on 16-bit, pointwise and \
         reorder-out rows, {:.2}x on f32/f64 fft and sbgemv_freqminor rows, {:.2}x tiled vs \
         naive on layout rows)",
        level.name(),
        SIMD_FLOOR.bound,
        SIMD_FFT_FLOOR.bound,
        LAYOUT_TILE_FLOOR.bound
    );
    rule(78);

    let mut rows = Vec::new();
    measure_conversions(&mut rows, level, samples, sample_ms);
    measure_fft::<f64>(&mut rows, (FFT_N, false), "f64", level, samples, sample_ms);
    measure_fft::<f32>(&mut rows, (FFT_N, false), "f32", level, samples, sample_ms);
    measure_fft::<f16>(&mut rows, (FFT_N, false), "f16", level, samples, sample_ms);
    measure_fft::<bf16>(&mut rows, (FFT_N, false), "bf16", level, samples, sample_ms);
    for n in REAL_FFT_NS {
        measure_fft::<f64>(&mut rows, (n, true), "f64", level, samples, sample_ms);
        measure_fft::<f32>(&mut rows, (n, true), "f32", level, samples, sample_ms);
    }
    for shape in FREQMINOR_BLOCKS {
        measure_freq_minor::<C64>(&mut rows, shape, "c64", level, samples, sample_ms);
        measure_freq_minor::<C32>(&mut rows, shape, "c32", level, samples, sample_ms);
    }
    measure_pointwise(&mut rows, Precision::Single, "f32", level, samples, sample_ms);
    measure_pointwise(&mut rows, Precision::Double, "f64", level, samples, sample_ms);
    measure_layout(&mut rows, level, samples, sample_ms);
    rule(78);

    if level == SimdLevel::Portable {
        // No vector level to compare against: both legs measured the same
        // scalar code (the numbers above show it), so there is nothing to
        // enforce on this host.
        record::write_out(&SIMD, &args, &rows);
        println!(
            "simd gate: SKIPPED (no SIMD level active — portable-only host or FFTMATVEC_SIMD=portable)"
        );
        return;
    }

    let below = |applies: fn(&Record) -> bool, bar| {
        let gated: Vec<Record> = rows.iter().filter(|r| applies(r)).cloned().collect();
        SIMD.threshold_failures(&gated, bar)
    };
    let mut below_floor = below(floor_gated, &SIMD_FLOOR);
    below_floor.extend(below(vector_floor_gated, &SIMD_FFT_FLOOR));
    below_floor.extend(below(layout_floor_gated, &LAYOUT_TILE_FLOOR));
    record::finish(&SIMD, &args, &rows, below_floor);
}
