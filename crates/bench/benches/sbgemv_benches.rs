//! Criterion benchmarks for the CPU SBGEMV kernel across shapes, ops and
//! datatypes (the Figure-1 sweep, wall-clock edition).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fftmatvec_blas::{sbgemv, BatchGeometry, GemvOp};
use fftmatvec_numeric::{Complex, Scalar, SplitMix64, C64};
use std::hint::black_box;

fn fill<S: Scalar>(rng: &mut SplitMix64, len: usize) -> Vec<S> {
    (0..len).map(|_| S::from_f64_parts(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
}

fn bench_kernels_short_wide(c: &mut Criterion) {
    let mut g = c.benchmark_group("sbgemv_short_wide_z");
    g.sample_size(20);
    // The FFTMatvec phase-3 shape, scaled: m << n, complex double,
    // conjugate transpose.
    let (m, n, batch) = (32usize, 1024usize, 32usize);
    let op = GemvOp::ConjTrans;
    let geom = BatchGeometry::packed(m, n, op, batch);
    let mut rng = SplitMix64::new(1);
    let a: Vec<C64> = fill(&mut rng, batch * m * n);
    let x: Vec<C64> = fill(&mut rng, batch * m);
    let mut y = vec![Complex::zero(); batch * n];
    g.throughput(Throughput::Elements((m * n * batch) as u64));
    g.bench_function("kernel", |b| {
        b.iter(|| sbgemv(op, Complex::one(), black_box(&a), &x, Complex::zero(), &mut y, &geom));
    });
    g.finish();
}

fn bench_all_dtypes(c: &mut Criterion) {
    let mut g = c.benchmark_group("sbgemv_dtypes");
    g.sample_size(20);
    let (m, n, batch) = (64usize, 512usize, 16usize);
    let op = GemvOp::Trans;
    let geom = BatchGeometry::packed(m, n, op, batch);

    macro_rules! bench_type {
        ($name:literal, $t:ty) => {
            let mut rng = SplitMix64::new(2);
            let a: Vec<$t> = fill(&mut rng, batch * m * n);
            let x: Vec<$t> = fill(&mut rng, batch * m);
            let mut y = vec![<$t as Scalar>::zero(); batch * n];
            g.bench_function($name, |b| {
                b.iter(|| {
                    sbgemv(
                        op,
                        <$t as Scalar>::one(),
                        black_box(&a),
                        &x,
                        <$t as Scalar>::zero(),
                        &mut y,
                        &geom,
                    )
                });
            });
        };
    }
    bench_type!("real_f32", f32);
    bench_type!("real_f64", f64);
    bench_type!("complex_f32", Complex<f32>);
    bench_type!("complex_f64", Complex<f64>);
    g.finish();
}

fn bench_nontrans(c: &mut Criterion) {
    let mut g = c.benchmark_group("sbgemv_nontrans_z");
    g.sample_size(20);
    // The F-matvec direction: y = A x with the same short-wide blocks.
    let (m, n, batch) = (32usize, 1024usize, 32usize);
    let op = GemvOp::NoTrans;
    let geom = BatchGeometry::packed(m, n, op, batch);
    let mut rng = SplitMix64::new(4);
    let a: Vec<C64> = fill(&mut rng, batch * m * n);
    let x: Vec<C64> = fill(&mut rng, batch * n);
    let mut y = vec![Complex::zero(); batch * m];
    g.throughput(Throughput::Elements((m * n * batch) as u64));
    g.bench_function("kernel", |b| {
        b.iter(|| sbgemv(op, Complex::one(), black_box(&a), &x, Complex::zero(), &mut y, &geom));
    });
    g.finish();
}

criterion_group!(benches, bench_kernels_short_wide, bench_all_dtypes, bench_nontrans);
criterion_main!(benches);
