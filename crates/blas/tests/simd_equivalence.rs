//! Bit-for-bit equivalence of the vectorized SBGEMV tile base case
//! against the scalar sweep, across every dispatch level, for all eight
//! `Scalar` types (4 real + 4 complex).

use std::sync::Mutex;

use fftmatvec_blas::{sbgemv, BatchGeometry, GemvOp};
use fftmatvec_numeric::half::{bf16, f16};
use fftmatvec_numeric::simd::{level_supported, set_active_level, SimdLevel};
use fftmatvec_numeric::{Complex, Scalar, SplitMix64};

/// Guards the process-global dispatch level against concurrent tests.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn supported_levels() -> Vec<SimdLevel> {
    [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512, SimdLevel::Neon]
        .into_iter()
        .filter(|&l| level_supported(l))
        .collect()
}

fn fill<S: Scalar>(rng: &mut SplitMix64, len: usize) -> Vec<S> {
    (0..len).map(|_| S::from_f64_parts(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
}

fn digest<S: Scalar>(v: &[S]) -> Vec<(u64, u64)> {
    v.iter()
        .map(|s| {
            let (re, im) = s.to_f64_parts();
            (re.to_bits(), im.to_bits())
        })
        .collect()
}

/// Run all three ops over one geometry at the current dispatch level.
fn run_all<S: Scalar>(m: usize, n: usize, batch: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut digests = Vec::new();
    for op in [GemvOp::NoTrans, GemvOp::Trans, GemvOp::ConjTrans] {
        let mut rng = SplitMix64::new(seed);
        let g = BatchGeometry::packed(m, n, op, batch);
        let a: Vec<S> = fill(&mut rng, batch * m * n);
        let x: Vec<S> = fill(&mut rng, batch * op.input_len(m, n));
        let y0: Vec<S> = fill(&mut rng, batch * op.output_len(m, n));
        let alpha = S::from_f64_parts(1.25, -0.5);
        let beta = S::from_f64_parts(0.75, 0.25);
        let mut y = y0;
        sbgemv(op, alpha, &a, &x, beta, &mut y, &g);
        digests.push(digest(&y));
    }
    digests
}

/// Shapes exercising the full vector body, the remainder rows of every
/// lane width (1–7 leftover rows), multiple row tiles, and the pairwise
/// tree above the base case (n > 16).
const SHAPES: &[(usize, usize, usize)] = &[(8, 20, 2), (12, 100, 1), (67, 33, 2), (5, 130, 3)];

fn check_tier<S: Scalar>() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let levels = supported_levels();
    let prev = set_active_level(SimdLevel::Portable);
    for &(m, n, batch) in SHAPES {
        let seed = (m * 1000 + n * 10 + batch) as u64;
        set_active_level(SimdLevel::Portable);
        let reference = run_all::<S>(m, n, batch, seed);
        for &level in &levels {
            set_active_level(level);
            assert_eq!(
                run_all::<S>(m, n, batch, seed),
                reference,
                "m={m} n={n} batch={batch} level={level}"
            );
        }
    }
    set_active_level(prev);
}

#[test]
fn gemv_identical_across_levels_f32() {
    check_tier::<f32>();
}

#[test]
fn gemv_identical_across_levels_f64() {
    check_tier::<f64>();
}

#[test]
fn gemv_identical_across_levels_f16() {
    check_tier::<f16>();
}

#[test]
fn gemv_identical_across_levels_bf16() {
    check_tier::<bf16>();
}

#[test]
fn gemv_identical_across_levels_c32() {
    check_tier::<Complex<f32>>();
}

#[test]
fn gemv_identical_across_levels_c64() {
    check_tier::<Complex<f64>>();
}

#[test]
fn gemv_identical_across_levels_c16() {
    check_tier::<Complex<f16>>();
}

#[test]
fn gemv_identical_across_levels_cb16() {
    check_tier::<Complex<bf16>>();
}
