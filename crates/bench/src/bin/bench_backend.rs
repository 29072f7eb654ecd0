//! Backend-dispatch overhead gate: the CI check that routing the matvec
//! primitives through `Arc<dyn DeviceBackend>` / `Arc<dyn BatchFft>`
//! costs nothing over the direct call path they wrap.
//!
//! The `DeviceBackend` refactor moved every pipeline primitive — batched
//! FFTs, phase-boundary casts, the pointwise symbol multiply, the
//! deterministic tree reduction — behind a trait object so the CPU pool
//! and the simulated device are one dispatch API. The trait boundary adds
//! one vtable hop plus enum tier/length validation per call; because
//! every primitive is *batched*, that fixed cost amortizes over
//! thousands of elements and must disappear into noise. This gate pins
//! it there.
//!
//! Each row times the two legs *interleaved* (direct, trait, direct,
//! ...) over identical workloads, which cancels machine-state drift out
//! of the overhead ratio — the same technique as `bench_simd`. Two
//! checks:
//!
//! * **ceiling** — every row's trait/direct ratio must stay under
//!   [`BACKEND_CEILING`] (1.05: within 5% of the direct path);
//! * **baseline** — every row's ratio must stay within `-tol` of the
//!   committed `bench/baseline_backend.json`.
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin bench_backend`
//! Flags:
//! * `-out <path>` — write the measured document (default
//!   `BENCH_backend.json`)
//! * `-check <path>` — gate against a committed baseline document
//! * `-tol <x>` — allowed overhead growth vs the baseline (default 1.10)
//! * `-quick` — shorter samples (the CI smoke mode)

use std::hint::black_box;
use std::sync::Arc;

use fftmatvec_backend::{CpuPool, DeviceBackend};
use fftmatvec_bench::record::{self, Record, BACKEND, BACKEND_CEILING};
use fftmatvec_bench::timing::time_pair_ns;
use fftmatvec_bench::{rule, Args};
use fftmatvec_comm::collectives::tree_reduce_sum_in_place;
use fftmatvec_fft::BatchedRealFft;
use fftmatvec_numeric::simd::pointwise_mul_assign;
use fftmatvec_numeric::{Complex, ComplexBuffer, Precision, Real, RealBuffer, SplitMix64, C64};

/// Batched FFT shape: the pipeline regime (transform length `2·N_t`,
/// one transform per operator row/column).
const FFT_N: usize = 1024;
const FFT_BATCH: usize = 32;
/// Elements per cast/pointwise/reduce call — a mid-sized pipeline phase
/// boundary.
const ELEMS: usize = 1 << 15;
/// Tree-reduce geometry: 8 rank-parts of 4096 elements.
const PARTS: usize = 8;

fn measure<A: FnMut(), B: FnMut()>(
    rows: &mut Vec<Record>,
    primitive: &str,
    precision: &str,
    direct: A,
    via_trait: B,
    samples: usize,
    sample_ms: f64,
) {
    let (direct_ns, trait_ns) = time_pair_ns(direct, via_trait, samples, sample_ms);
    println!(
        "{primitive:<18} {precision:<8} direct {direct_ns:>12.1} ns   trait {trait_ns:>12.1} ns   \
         {:>7.3}x",
        trait_ns / direct_ns
    );
    rows.push(BACKEND.row(&[primitive, precision], &[direct_ns, trait_ns]));
}

/// Batched real FFT, forward and inverse, in tier `T`: the direct
/// [`BatchedRealFft`] engine against the same engine reached through
/// `device.real_fft(..)` as an `Arc<dyn BatchFft>`.
fn measure_fft<T: Real>(
    rows: &mut Vec<Record>,
    device: &CpuPool,
    p: Precision,
    precision: &str,
    samples: usize,
    ms: f64,
) {
    let mut rng = SplitMix64::new(53);
    let mut host = vec![0.0f64; FFT_BATCH * FFT_N];
    rng.fill_uniform(&mut host, -1.0, 1.0);

    let engine = BatchedRealFft::<T>::new(FFT_N);
    let time_direct: Vec<T> = host.iter().map(|&x| T::from_f64(x)).collect();
    let mut spec_direct = vec![Complex::<T>::zero(); FFT_BATCH * (FFT_N / 2 + 1)];
    let mut back_direct = vec![T::from_f64(0.0); FFT_BATCH * FFT_N];

    let fft = device.real_fft(p, FFT_N).expect("CPU FFT plan");
    let time_trait = RealBuffer::from_f64(p, &host);
    let mut spec_trait = ComplexBuffer::zeros(p, FFT_BATCH * (FFT_N / 2 + 1));
    let mut back_trait = RealBuffer::zeros(p, FFT_BATCH * FFT_N);

    measure(
        rows,
        "fft_forward",
        precision,
        || engine.forward_batch(black_box(&time_direct), black_box(&mut spec_direct)),
        || fft.forward(black_box(&time_trait), black_box(&mut spec_trait)).unwrap(),
        samples,
        ms,
    );
    measure(
        rows,
        "fft_inverse",
        precision,
        || engine.inverse_batch(black_box(&spec_direct), black_box(&mut back_direct)),
        || fft.inverse(black_box(&spec_trait), black_box(&mut back_trait)).unwrap(),
        samples,
        ms,
    );
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let (samples, sample_ms) = if quick { (7, 10.0) } else { (11, 25.0) };

    let device = CpuPool::new();
    println!(
        "Backend dispatch gate: direct call path vs dyn DeviceBackend (ceiling {:.2}x)",
        BACKEND_CEILING.bound
    );
    rule(78);

    let mut rows = Vec::new();
    let mut rng = SplitMix64::new(59);

    measure_fft::<f64>(&mut rows, &device, Precision::Double, "f64", samples, sample_ms);
    measure_fft::<f32>(&mut rows, &device, Precision::Single, "f32", samples, sample_ms);

    // Phase-boundary real cast, f64 -> f32: the backend wraps
    // `RealBuffer::cast_into`, so the direct leg calls it itself and the
    // ratio prices the dispatch alone.
    {
        let mut host = vec![0.0f64; ELEMS];
        rng.fill_uniform(&mut host, -1.0, 1.0);
        let src = RealBuffer::from_f64(Precision::Double, &host);
        let mut dst_direct = RealBuffer::zeros(Precision::Single, ELEMS);
        let mut dst_trait = dst_direct.clone();
        measure(
            &mut rows,
            "cast_real",
            "f64->f32",
            || black_box(&src).cast_into(Precision::Single, &mut dst_direct),
            || device.cast_real(black_box(&src), Precision::Single, &mut dst_trait).unwrap(),
            samples,
            sample_ms,
        );
    }

    // Phase-boundary complex cast, f64 -> f32, through
    // `ComplexBuffer::cast_into` on the direct leg.
    {
        let zs: Vec<C64> =
            (0..ELEMS).map(|_| C64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect();
        let src = ComplexBuffer::from_c64(Precision::Double, &zs);
        let mut dst_direct = ComplexBuffer::zeros(Precision::Single, ELEMS);
        let mut dst_trait = dst_direct.clone();
        measure(
            &mut rows,
            "cast_complex",
            "f64->f32",
            || black_box(&src).cast_into(Precision::Single, &mut dst_direct),
            || device.cast_complex(black_box(&src), Precision::Single, &mut dst_trait).unwrap(),
            samples,
            sample_ms,
        );
    }

    // Pointwise symbol multiply: the direct leg calls the library kernel
    // the backend wraps, on the typed slices. The symbol is unit-modulus
    // so repeated in-place multiplies keep |io| constant — no drift into
    // denormals or infinities that would distort either leg's timing.
    {
        let sym: Vec<C64> = (0..ELEMS)
            .map(|_| {
                let theta = rng.uniform(0.0, std::f64::consts::TAU);
                C64::new(theta.cos(), theta.sin())
            })
            .collect();
        let io: Vec<C64> =
            (0..ELEMS).map(|_| C64::new(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))).collect();
        let sym_direct = sym.clone();
        let mut io_direct = io.clone();
        let sym_trait = ComplexBuffer::from_c64(Precision::Double, &sym);
        let mut io_trait = ComplexBuffer::from_c64(Precision::Double, &io);
        measure(
            &mut rows,
            "pointwise_multiply",
            "f64",
            || pointwise_mul_assign(&mut io_direct, black_box(&sym_direct), false),
            || device.pointwise_multiply(&mut io_trait, black_box(&sym_trait), false).unwrap(),
            samples,
            sample_ms,
        );
    }

    // Deterministic tree reduction over rank-parts. Positive inputs so
    // the repeatedly re-reduced part 0 grows without sign cancellation.
    {
        let part = ELEMS / PARTS;
        let mut vals = vec![0.0f64; ELEMS];
        rng.fill_uniform(&mut vals, 0.0, 1.0);
        let mut flat_direct = vals.clone();
        let mut flat_trait = RealBuffer::from_f64(Precision::Double, &vals);
        measure(
            &mut rows,
            "tree_reduce",
            "f64",
            || tree_reduce_sum_in_place(black_box(&mut flat_direct), part),
            || device.tree_reduce(black_box(&mut flat_trait), part).unwrap(),
            samples,
            sample_ms,
        );
    }
    rule(78);

    // The dyn handle is what the pipeline actually holds — make sure the
    // measured device is used as one at least once so the comparison is
    // honest about the vtable.
    let as_dyn: Arc<dyn DeviceBackend> = Arc::new(device);
    assert_eq!(as_dyn.name(), "cpu-pool");

    let over_ceiling = BACKEND.threshold_failures(&rows, &BACKEND_CEILING);
    record::finish(&BACKEND, &args, &rows, over_ceiling);
}
