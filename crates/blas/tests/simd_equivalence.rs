//! Bit-for-bit equivalence of the vectorized SBGEMV tile base cases and
//! epilogue against the scalar sweep, across every dispatch level, for
//! all eight `Scalar` types (4 real + 4 complex).

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

/// Run all three ops over one geometry at the current dispatch level,
/// packed (`lda = m`) and with a padded leading dimension.
fn run_all<S: Scalar>(m: usize, n: usize, batch: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut digests = Vec::new();
    for op in [GemvOp::NoTrans, GemvOp::Trans, GemvOp::ConjTrans] {
        for lda in [m, m + 3] {
            let mut rng = SplitMix64::new(seed);
            let g =
                BatchGeometry { lda, stride_a: lda * n, ..BatchGeometry::packed(m, n, op, batch) };
            let a: Vec<S> = fill(&mut rng, batch * lda * n);
            let x: Vec<S> = fill(&mut rng, batch * op.input_len(m, n));
            let y0: Vec<S> = fill(&mut rng, batch * op.output_len(m, n));
            let alpha = S::from_f64_parts(1.25, -0.5);
            let beta = S::from_f64_parts(0.75, 0.25);
            let mut y = y0;
            sbgemv(op, alpha, &a, &x, beta, &mut y, &g);
            digests.push(digest(&y));
        }
    }
    digests
}

/// Shapes exercising the full vector body, the remainders of every lane
/// and register-group width on both sweeps (1–7 leftover rows; `n mod 16`
/// takes every value 0…15 across the set, for the transposed column
/// groups), multiple output tiles, and the pairwise tree above the base
/// case on either side (`n > 16` for non-transpose, `m > 16` for
/// transpose). First entry: the pipeline's paper-shaped block.
const SHAPES: &[(usize, usize, usize)] = &[
    (16, 256, 2),
    (8, 20, 2),
    (12, 100, 1),
    (67, 33, 2),
    (5, 130, 3),
    (3, 19, 1),
    (17, 21, 1),
    (20, 38, 1),
    (33, 23, 1),
    (9, 40, 1),
    (18, 25, 2),
    (2, 42, 1),
    (31, 27, 1),
    (16, 44, 1),
    (19, 29, 1),
    (7, 46, 1),
    (24, 31, 1),
];

/// Every row count around one and two registers of either complex type
/// (1–3 and 5–7 rows: the forward tiles' masked partial register; 9: a
/// whole register group plus one row) against reduction lengths below,
/// at and past one base run and at the paper's 256.
fn remainder_row_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
    let rows = [1, 2, 3, 5, 6, 7, 9].into_iter();
    rows.flat_map(|m| [1, 16, 17, 256].into_iter().map(move |n| (m, n, 1 + n % 2)))
}

fn check_tier<S: Scalar>() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let levels = supported_levels();
    let prev = set_active_level(SimdLevel::Portable);
    for (m, n, batch) in SHAPES.iter().copied().chain(remainder_row_shapes()) {
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
