//! Figure 1 — (conjugate-)transpose SBGEMV bandwidth: rocBLAS baseline vs
//! the optimized kernel on a simulated MI300X.
//!
//! Reproduces the `rocblas-bench` sweep of the paper: the four datatypes
//! (`s`/`d`/`c`/`z`), short-and-wide through square shapes, batch 100,
//! transpose for real types and conjugate-transpose for complex types.
//! Bandwidth comes from the kernel cost model; a CPU correctness pass
//! checks Figure 1's block kernel (`sbgemv`, the scalar reference)
//! against a naive dot product, and a closing *measured* line times the
//! kernel the pipeline runs (`sbgemv_freq_minor`) in both directions on
//! this host.
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin fig1_sbgemv`

use std::hint::black_box;

use fftmatvec_bench::rule;
use fftmatvec_bench::timing::time_pair_ns;
use fftmatvec_blas::{
    kernel_profile, sbgemv, sbgemv_freq_minor, BatchGeometry, GemvOp, KernelChoice,
};
use fftmatvec_gpu::DeviceSpec;
use fftmatvec_numeric::{Complex, DType, Scalar, SplitMix64};

/// The shapes of Figure 1, per datatype (larger shapes are dropped for the
/// heavier datatypes exactly as in the paper, which is memory-limited).
fn shapes_for(dtype: DType) -> Vec<(usize, usize)> {
    let base = vec![(128, 4096), (256, 256), (256, 8192), (512, 512)];
    match dtype {
        DType::RealF32 => {
            let mut v = base;
            v.push((1024, 1024));
            v.push((2048, 2048));
            v
        }
        DType::ComplexF64 => base[..3].to_vec(),
        _ => base,
    }
}

/// Paper-reported % of peak (rocBLAS, optimized) for side-by-side
/// comparison, keyed by (dtype, m, n).
fn paper_reference(dtype: DType, m: usize, n: usize) -> Option<(f64, f64)> {
    let table: &[(DType, usize, usize, f64, f64)] = &[
        (DType::RealF32, 128, 4096, 15.0, 83.5),
        (DType::RealF32, 256, 256, 21.7, 58.6),
        (DType::RealF32, 256, 8192, 24.8, 72.7),
        (DType::RealF32, 512, 512, 44.8, 76.7),
        (DType::RealF32, 1024, 1024, 58.4, 64.7),
        (DType::RealF32, 2048, 2048, 63.3, 67.8),
        (DType::RealF64, 128, 4096, 25.5, 73.2),
        (DType::RealF64, 256, 256, 41.7, 62.7),
        (DType::RealF64, 256, 8192, 42.5, 70.8),
        (DType::RealF64, 512, 512, 76.4, 76.4),
        (DType::ComplexF32, 128, 4096, 25.0, 71.1),
        (DType::ComplexF32, 256, 256, 40.7, 57.6),
        (DType::ComplexF32, 256, 8192, 40.4, 70.3),
        (DType::ComplexF32, 512, 512, 75.8, 76.2),
        (DType::ComplexF64, 128, 4096, 42.0, 72.7),
        (DType::ComplexF64, 256, 256, 66.2, 71.2),
        (DType::ComplexF64, 256, 8192, 61.9, 69.5),
    ];
    table
        .iter()
        .find(|(d, mm, nn, _, _)| *d == dtype && *mm == m && *nn == n)
        .map(|&(_, _, _, b, o)| (b, o))
}

fn fill<S: Scalar>(rng: &mut SplitMix64, len: usize) -> Vec<S> {
    (0..len).map(|_| S::from_f64_parts(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
}

/// CPU cross-check: the kernel against a sequential naive dot per output
/// (scaled-down shape to keep the run fast). `op` is a transposed mode.
fn kernel_vs_naive<S: Scalar>(op: GemvOp) -> f64 {
    let (m, n, batch) = (24usize, 96usize, 5usize);
    let mut rng = SplitMix64::new(7);
    let g = BatchGeometry::packed(m, n, op, batch);
    let a: Vec<S> = fill(&mut rng, batch * m * n);
    let x: Vec<S> = fill(&mut rng, batch * m);
    let mut y = vec![S::zero(); batch * n];
    sbgemv(op, S::one(), &a, &x, S::zero(), &mut y, &g);
    let conj = op == GemvOp::ConjTrans;
    y.iter()
        .enumerate()
        .map(|(k, p)| {
            let (col, xb) = (&a[k * m..(k + 1) * m], &x[k / n * m..(k / n + 1) * m]);
            let q = col
                .iter()
                .zip(xb)
                .fold(S::zero(), |acc, (&aij, &xi)| acc + if conj { aij.conj() } else { aij } * xi);
            let (pr, pi) = p.to_f64_parts();
            let (qr, qi) = q.to_f64_parts();
            ((pr - qr).powi(2) + (pi - qi).powi(2)).sqrt()
        })
        .fold(0.0, f64::max)
}

/// Measured on this CPU: the pipeline's phase 3, [`sbgemv_freq_minor`]
/// for F (`NoTrans`) and F\* (`ConjTrans`) on the `bench_e2e` paper
/// operator (16×256 blocks, 65 frequencies), interleaved; `(µs, GB/s)`
/// per call, bytes = matrix + both vectors. Reported, never asserted.
fn measured_sweeps<S: Scalar>() -> [(f64, f64); 2] {
    let (nd, nm, nfreq) = (16usize, 256usize, 65usize);
    let rng = &mut SplitMix64::new(11);
    let a: Vec<S> = fill(rng, nd * nm * nfreq);
    let (long, short): (Vec<S>, Vec<S>) = (fill(rng, nm * nfreq), fill(rng, nd * nfreq));
    let (mut y_f, mut y_h) = (short.clone(), long.clone());
    let (ns_f, ns_h) = time_pair_ns(
        || {
            let y = black_box(&mut y_f);
            sbgemv_freq_minor(GemvOp::NoTrans, black_box(&a), &long, y, nd, nm, nfreq)
        },
        || {
            let y = black_box(&mut y_h);
            sbgemv_freq_minor(GemvOp::ConjTrans, black_box(&a), &short, y, nd, nm, nfreq)
        },
        7,
        10.0,
    );
    let bytes = ((a.len() + long.len() + short.len()) * std::mem::size_of::<S>()) as f64;
    [ns_f, ns_h].map(|ns| (ns / 1e3, bytes / ns))
}

fn main() {
    let dev = DeviceSpec::mi300x();
    let batch = 100usize;
    println!("Figure 1 — (Conjugate) Transpose SBGEMV Performance: {} (simulated)", dev.name);
    println!(
        "batch_count = {batch}; bandwidth = modeled achieved GB/s (% of {:.1} TB/s peak)",
        dev.peak_bw / 1e12
    );
    println!();

    for dtype in DType::ALL {
        let op = if dtype.is_complex() { GemvOp::ConjTrans } else { GemvOp::Trans };
        println!("== {dtype} (transA = {op}) ==");
        let header = format!(
            "{:>12} | {:>9} {:>6} | {:>9} {:>6} | {:>7} | {:>13}",
            "size", "rocBLAS", "%peak", "optimized", "%peak", "gain", "paper b/o (%)"
        );
        println!("{header}");
        rule(header.len());
        for (m, n) in shapes_for(dtype) {
            let base = kernel_profile(KernelChoice::Reference, op, dtype, m, n, batch);
            let opt = kernel_profile(KernelChoice::Optimized, op, dtype, m, n, batch);
            let bw_b = base.achieved_bandwidth(&dev);
            let bw_o = opt.achieved_bandwidth(&dev);
            let pct_b = 100.0 * bw_b / dev.peak_bw;
            let pct_o = 100.0 * bw_o / dev.peak_bw;
            let paper = paper_reference(dtype, m, n)
                .map(|(b, o)| format!("{b:.1}/{o:.1}"))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:>5}x{:<6} | {:>9.0} {:>5.1}% | {:>9.0} {:>5.1}% | {:>6.2}x | {:>13}",
                m,
                n,
                bw_b / 1e9,
                pct_b,
                bw_o / 1e9,
                pct_o,
                bw_o / bw_b,
                paper
            );
        }
        println!();
    }

    // Numerical agreement of the CPU kernel with the naive oracle.
    let dt = kernel_vs_naive::<f64>(GemvOp::Trans);
    let zt = kernel_vs_naive::<Complex<f64>>(GemvOp::ConjTrans);
    println!(
        "kernel cross-check (max abs diff vs naive dot, CPU execution): real double T = {dt:.2e}, complex double H = {zt:.2e}"
    );
    assert!(dt < 1e-12 && zt < 1e-12, "CPU kernel disagrees with the naive dot");

    println!();
    println!(
        "measured on this CPU (one thread): the pipeline's SBGEMV (sbgemv_freq_minor), 16x256 \
         blocks x 65 frequencies, matrix + vector bytes / best time"
    );
    let rows = [
        ("complex float", measured_sweeps::<Complex<f32>>()),
        ("complex double", measured_sweeps::<Complex<f64>>()),
    ];
    for (name, [(us_f, gbps_f), (us_h, gbps_h)]) in rows {
        println!(
            "  {name:<14} | F {gbps_f:>5.1} GB/s ({us_f:>6.1} us) | F* {gbps_h:>5.1} GB/s ({us_h:>6.1} \
             us) | F*/F time {:.2}x",
            us_h / us_f
        );
    }
}
