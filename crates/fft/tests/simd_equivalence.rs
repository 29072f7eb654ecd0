//! Bit-for-bit equivalence of the vectorized FFT stages against the
//! scalar butterflies, across every dispatch level, for all four
//! precision tiers, power-of-two / mixed-radix / Bluestein-prime
//! lengths, forward and inverse, complex and real transforms.
//!
//! This is the PR's non-negotiable gate: which SIMD level executes a
//! transform must be unobservable in the output, exactly like thread
//! count in the PR-5 determinism matrix.

use std::sync::Mutex;

use fftmatvec_fft::{FftDirection, FftPlan, RealFftPlan};
use fftmatvec_numeric::half::{bf16, f16};
use fftmatvec_numeric::simd::{level_supported, set_active_level, SimdLevel};
use fftmatvec_numeric::{Complex, Real, SplitMix64};

/// Guards the process-global dispatch level against concurrent tests.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn supported_levels() -> Vec<SimdLevel> {
    [SimdLevel::Portable, SimdLevel::Avx2].into_iter().filter(|&l| level_supported(l)).collect()
}

/// Lengths covering every execution strategy: tiny, pure powers of two
/// (radix-4 + radix-2 schedules), mixed radices with odd primes, and
/// Bluestein lengths (prime and composite-with-large-prime; the inner
/// power-of-two convolution plus the pointwise chirp multiply). The
/// first stage (`s == 1`, lanes across butterflies) is put on every
/// path: `m` = 1 (2, 4), 2 (8), odd (12, 20, 36), even with a partial
/// `f32` register (1000: `m` = 250), whole registers (16, 4096), and
/// radix-2 first with odd `m` (6, 10, 50, 250).
const SIZES: &[usize] =
    &[2, 4, 6, 8, 10, 12, 16, 20, 36, 50, 61, 64, 120, 250, 256, 360, 1000, 4096, 67, 134, 202];

/// Real lengths: the half plan sees `n/2`, and the mirror-pair loops see
/// no pair at all (2, 4), fewer than a register (6, 8, 12), register
/// multiples and remainders (64 … 8192), odd `n/2` (130) and a Bluestein
/// half plan (134).
const REAL_SIZES: &[usize] = &[2, 4, 6, 8, 12, 64, 120, 128, 130, 134, 200, 256, 500, 2000, 8192];

/// Widening every component to `f64` is exact and injective on bit
/// patterns for all four tiers, so this *is* a bit digest — `−0`,
/// subnormals and infinities included. NaNs compare as one value: which
/// operand's sign and payload a NaN result inherits is left open by
/// IEEE-754 and by the compiler (it may commute an add), so only *where*
/// NaNs appear is a property of the kernels.
fn bits<T: Real>(x: T) -> u64 {
    let wide = x.to_f64();
    if wide.is_nan() {
        f64::NAN.to_bits()
    } else {
        wide.to_bits()
    }
}

fn digest<T: Real>(v: &[Complex<T>]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (bits(z.re), bits(z.im))).collect()
}

/// Values that are special in at least one tier: signed zeros, a
/// subnormal of each format (`f64`, `f32`/`bf16`, `f16`), magnitudes past
/// `f16`'s 65504 and near `f32`'s overflow, among ordinary ones.
const FINITE_SPECIALS: &[f64] =
    &[0.0, -0.0, 1e-310, -1e-40, 3e-6, 65504.0, -1e5, 3e38, 1.0, -0.75, 1e-3, 7.0];
const NON_FINITE: &[f64] = &[f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// Three real signals of length `len`: uniform noise, the finite special
/// values, and the special values with infinities and NaNs mixed in.
fn signals<T: Real>(len: usize, seed: u64) -> [Vec<T>; 3] {
    let mut rng = SplitMix64::new(seed);
    let noise = (0..len).map(|_| T::from_f64(rng.uniform(-1.0, 1.0))).collect();
    let mut pick = |tables: &[&[f64]]| -> Vec<T> {
        let pool: Vec<f64> = tables.concat();
        (0..len).map(|_| T::from_f64(pool[rng.next_u64() as usize % pool.len()])).collect()
    };
    [noise, pick(&[FINITE_SPECIALS]), pick(&[FINITE_SPECIALS, NON_FINITE])]
}

fn complex_signals<T: Real>(n: usize, seed: u64) -> [Vec<Complex<T>>; 3] {
    signals::<T>(2 * n, seed).map(|flat| flat.chunks(2).map(|c| Complex::new(c[0], c[1])).collect())
}

/// Forward + inverse, out-of-place + in-place digests at the current
/// dispatch level.
fn run_complex<T: Real>(plan: &FftPlan<T>, x: &[Complex<T>]) -> Vec<Vec<(u64, u64)>> {
    let n = x.len();
    let mut digests = Vec::with_capacity(4);
    let mut scratch = vec![Complex::<T>::zero(); plan.scratch_len()];
    for dir in [FftDirection::Forward, FftDirection::Inverse] {
        let mut out = vec![Complex::<T>::zero(); n];
        plan.process(x, &mut out, &mut scratch, dir);
        digests.push(digest(&out));
        let mut buf = x.to_vec();
        plan.process_inplace(&mut buf, &mut scratch, dir);
        digests.push(digest(&buf));
    }
    digests
}

fn check_complex_tier<T: Real>() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let levels = supported_levels();
    let prev = set_active_level(SimdLevel::Portable);
    for &n in SIZES {
        let plan = FftPlan::<T>::new(n);
        for (which, x) in complex_signals::<T>(n, 0xF00D + n as u64).iter().enumerate() {
            set_active_level(SimdLevel::Portable);
            let reference = run_complex(&plan, x);
            for &level in &levels {
                set_active_level(level);
                assert_eq!(
                    run_complex(&plan, x),
                    reference,
                    "complex n={n} signal={which} level={level}"
                );
            }
        }
    }
    set_active_level(prev);
}

#[test]
fn complex_transforms_identical_across_levels_f32() {
    check_complex_tier::<f32>();
}

#[test]
fn complex_transforms_identical_across_levels_f64() {
    check_complex_tier::<f64>();
}

#[test]
fn complex_transforms_identical_across_levels_f16() {
    check_complex_tier::<f16>();
}

#[test]
fn complex_transforms_identical_across_levels_bf16() {
    check_complex_tier::<bf16>();
}

/// Real-to-complex forward and complex-to-real inverse digests.
fn run_real<T: Real>(plan: &RealFftPlan<T>, x: &[T]) -> (Vec<(u64, u64)>, Vec<u64>) {
    let mut spectrum = vec![Complex::<T>::zero(); plan.spectrum_len()];
    let mut scratch = vec![Complex::<T>::zero(); plan.scratch_len()];
    plan.forward(x, &mut spectrum, &mut scratch);
    let mut back = vec![T::ZERO; x.len()];
    plan.inverse(&spectrum, &mut back, &mut scratch);
    (digest(&spectrum), back.iter().map(|&v| bits(v)).collect())
}

fn check_real_tier<T: Real>() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let levels = supported_levels();
    let prev = set_active_level(SimdLevel::Portable);
    for &n in REAL_SIZES {
        let plan = RealFftPlan::<T>::new(n);
        for (which, x) in signals::<T>(n, 0xBEEF + n as u64).iter().enumerate() {
            set_active_level(SimdLevel::Portable);
            let reference = run_real(&plan, x);
            for &level in &levels {
                set_active_level(level);
                assert_eq!(
                    run_real(&plan, x),
                    reference,
                    "real n={n} signal={which} level={level}"
                );
            }
        }
    }
    set_active_level(prev);
}

#[test]
fn real_transforms_identical_across_levels_f32() {
    check_real_tier::<f32>();
}

#[test]
fn real_transforms_identical_across_levels_f64() {
    check_real_tier::<f64>();
}

#[test]
fn real_transforms_identical_across_levels_f16() {
    check_real_tier::<f16>();
}

#[test]
fn real_transforms_identical_across_levels_bf16() {
    check_real_tier::<bf16>();
}
