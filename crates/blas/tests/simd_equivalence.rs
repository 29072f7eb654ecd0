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
    [SimdLevel::Portable, SimdLevel::Avx2].into_iter().filter(|&l| level_supported(l)).collect()
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

// ---------------------------------------------------------------------
// Frequency-minor SBGEMV against reorder → `sbgemv` → reorder
// ---------------------------------------------------------------------

use fftmatvec_blas::sbgemv_freq_minor;

/// One value per bit pattern, except that NaNs compare as one value:
/// which operand's sign and payload a NaN result inherits is left open by
/// IEEE 754 and differs between x86 instruction forms — *where* NaNs
/// appear is a property of the kernels.
fn canonical<S: Scalar>(v: &[S]) -> Vec<(u64, u64)> {
    let bits = |w: f64| if w.is_nan() { f64::NAN.to_bits() } else { w.to_bits() };
    v.iter().map(|s| s.to_f64_parts()).map(|(re, im)| (bits(re), bits(im))).collect()
}

/// Random data with signed zeros, infinities, NaN and subnormals of every
/// tier cycled through every `period`-th element (0: none).
fn fill_special<S: Scalar>(rng: &mut SplitMix64, len: usize, period: usize) -> Vec<S> {
    const SPECIAL: [f64; 8] =
        [-0.0, f64::INFINITY, 5e-324, f64::NEG_INFINITY, 1e-40, f64::NAN, -6e-8, 0.0];
    (0..len)
        .map(|i| {
            let (re, im) = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
            match (period, i % period.max(1)) {
                (0, _) => S::from_f64_parts(re, im),
                (_, 1) => S::from_f64_parts(SPECIAL[i / period % 8], im),
                (_, 2) => S::from_f64_parts(re, SPECIAL[(i / period + 3) % 8]),
                _ => S::from_f64_parts(re, im),
            }
        })
        .collect()
}

/// `[rows][cols]` → `[cols][rows]`.
fn transposed<S: Scalar>(v: &[S], rows: usize, cols: usize) -> Vec<S> {
    (0..rows * cols).map(|i| v[(i % rows) * cols + i / rows]).collect()
}

/// Both layouts' outputs for one `m × n × nfreq` batch at the current
/// level, as `[freq][output]`: the frequency-minor kernel fed the
/// reordered operands, and `sbgemv` with α = 1, β = 0 over a NaN-filled
/// `y`.
fn both_layouts<S: Scalar>(
    op: GemvOp,
    (m, n, nfreq): (usize, usize, usize),
    period: usize,
) -> [Vec<(u64, u64)>; 2] {
    let (red, outs) = (op.input_len(m, n), op.output_len(m, n));
    let mut rng = SplitMix64::new((m * 977 + n * 31 + nfreq) as u64);
    // Column-major blocks: a[f·m·n + k·m + i]; frequency-minor rows are
    // entries (i, k) in row-major order: fm[(i·n + k)·nfreq + f].
    let a: Vec<S> = fill_special(&mut rng, nfreq * m * n, period);
    let x: Vec<S> = fill_special(&mut rng, nfreq * red, period);
    let a_fm: Vec<S> = (0..m * n * nfreq)
        .map(|e| (e / nfreq, e % nfreq))
        .map(|(ik, f)| a[f * m * n + ik % n * m + ik / n])
        .collect();
    let x_fm = transposed(&x, nfreq, red);
    let nan = S::from_f64_parts(f64::NAN, f64::NAN);

    let mut y_fm = vec![nan; outs * nfreq];
    sbgemv_freq_minor(op, &a_fm, &x_fm, &mut y_fm, m, n, nfreq);
    let mut y = vec![nan; nfreq * outs];
    sbgemv(op, S::one(), &a, &x, S::zero(), &mut y, &BatchGeometry::packed(m, n, op, nfreq));
    [canonical(&transposed(&y_fm, outs, nfreq)), canonical(&y)]
}

/// Reduction lengths 1, 4, 16, 17, 33 and 67 on either side (both sides
/// of one base run and of two tree levels) against 1–5 outputs, the two
/// serve / long-series block shapes, and a 16×16 block.
const FM_BLOCKS: &[(usize, usize)] =
    &[(1, 1), (4, 4), (2, 16), (3, 5), (17, 3), (2, 33), (67, 1), (5, 67), (16, 16)];

/// Frequency counts: below one register, every masked tail of either
/// complex lane width (1…3), a lone register, a register group plus a
/// tail, `N_t + 1` for a power-of-two series (one tile), one tile plus a
/// tail, and two tiles plus a tail (with the 16×16 block both of the
/// last two are above the block-major reference's parallel threshold).
const FM_NFREQ: &[usize] = &[1, 2, 3, 5, 7, 19, 65, 131, 257];

fn check_freq_minor<S: Scalar>() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let levels = supported_levels();
    let prev = set_active_level(SimdLevel::Portable);
    for &(m, n) in FM_BLOCKS {
        for &nfreq in FM_NFREQ {
            for op in [GemvOp::NoTrans, GemvOp::Trans, GemvOp::ConjTrans] {
                for period in [0, 5] {
                    set_active_level(SimdLevel::Portable);
                    let [_, reference] = both_layouts::<S>(op, (m, n, nfreq), period);
                    for &level in &levels {
                        set_active_level(level);
                        let [freq_minor, block_major] =
                            both_layouts::<S>(op, (m, n, nfreq), period);
                        let what = format!("{op} {m}x{n}x{nfreq} special/{period} level={level}");
                        assert_eq!(block_major, reference, "block-major {what}");
                        assert_eq!(freq_minor, reference, "frequency-minor {what}");
                    }
                }
            }
        }
    }
    set_active_level(prev);
}

macro_rules! freq_minor_tests {
    ($(($name:ident, $t:ty)),+ $(,)?) => {$(
        #[test]
        fn $name() {
            check_freq_minor::<$t>();
        }
    )+};
}

freq_minor_tests!(
    (freq_minor_equals_reordered_sbgemv_f32, f32),
    (freq_minor_equals_reordered_sbgemv_f64, f64),
    (freq_minor_equals_reordered_sbgemv_f16, f16),
    (freq_minor_equals_reordered_sbgemv_bf16, bf16),
    (freq_minor_equals_reordered_sbgemv_c32, Complex<f32>),
    (freq_minor_equals_reordered_sbgemv_c64, Complex<f64>),
    (freq_minor_equals_reordered_sbgemv_c16, Complex<f16>),
    (freq_minor_equals_reordered_sbgemv_cb16, Complex<bf16>),
);

// ---------------------------------------------------------------------
// Register panels against the one-column kernel
// ---------------------------------------------------------------------

use fftmatvec_blas::sbgemv_freq_minor_many;

/// `cols` columns of one `m × n × nfreq` batch at the current level: the
/// panel entry point's output, and `sbgemv_freq_minor` run on each column
/// alone, both over NaN-filled `y`.
fn panel_and_columns<S: Scalar>(
    op: GemvOp,
    (m, n, nfreq): (usize, usize, usize),
    cols: usize,
    period: usize,
) -> [Vec<(u64, u64)>; 2] {
    let (red, outs) = (op.input_len(m, n), op.output_len(m, n));
    let (xs, ys) = (red * nfreq, outs * nfreq);
    let mut rng = SplitMix64::new((m * 977 + n * 31 + nfreq * 7 + cols) as u64);
    let a: Vec<S> = fill_special(&mut rng, m * n * nfreq, period);
    let x: Vec<S> = fill_special(&mut rng, cols * xs, period);
    let nan = S::from_f64_parts(f64::NAN, f64::NAN);
    let mut panel = vec![nan; cols * ys];
    sbgemv_freq_minor_many(op, &a, &x, &mut panel, m, n, nfreq, cols);
    let mut alone = vec![nan; cols * ys];
    for (x, y) in x.chunks_exact(xs).zip(alone.chunks_exact_mut(ys)) {
        sbgemv_freq_minor(op, &a, x, y, m, n, nfreq);
    }
    [digest(&panel), digest(&alone)]
}

/// 1–9 columns (no register panel, one or two and a remainder of every
/// width) in both of the pipeline's ops, over the frequency-minor blocks —
/// reductions inside one base run, where the panel stores `y` through its
/// own epilogue, and past it, through the tree — and every frequency count
/// above but the three-tile one (every masked tail, one tile and a tail),
/// with and without −0, ±∞, NaN and subnormals: every output bit of the
/// panel equals the column run alone. At every vector level; at the
/// portable level the panel entry point is the per-column loop itself.
fn check_panels<S: Scalar>() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let prev = set_active_level(SimdLevel::Portable);
    for level in supported_levels().into_iter().filter(|&l| l != SimdLevel::Portable) {
        set_active_level(level);
        for &(m, n) in FM_BLOCKS {
            for &nfreq in FM_NFREQ.iter().filter(|&&f| f < 257) {
                for op in [GemvOp::NoTrans, GemvOp::ConjTrans] {
                    for cols in 1..=9 {
                        for period in [0, 5] {
                            let [panel, alone] =
                                panel_and_columns::<S>(op, (m, n, nfreq), cols, period);
                            let what = format!("{op} {m}x{n}x{nfreq} cols={cols} special/{period}");
                            assert_eq!(panel, alone, "{what} level={level}");
                        }
                    }
                }
            }
        }
    }
    set_active_level(prev);
}

#[test]
fn register_panels_equal_columns_alone_c32() {
    check_panels::<Complex<f32>>();
}

#[test]
fn register_panels_equal_columns_alone_c64() {
    check_panels::<Complex<f64>>();
}
