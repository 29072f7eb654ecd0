//! Bluestein's chirp-z algorithm for lengths with large prime factors.
//!
//! Rewrites an arbitrary-length DFT as a circular convolution of length
//! `m` (the next power of two ≥ `2n−1`), which the iterative engine
//! handles natively:
//!
//! `X[k] = chirp[k] · Σ_j (x[j]·chirp[j]) · conj(chirp[k−j])`,
//! with `chirp[j] = e^{-πi j²/n}`.
//!
//! The inner power-of-two plan is shared through [`crate::cache`] (many
//! Bluestein lengths round up to the same `m`), and the convolution runs
//! the inner transforms in place: the chirped signal buffer and its
//! ping-pong partner are the whole scratch footprint, `2·m` elements.
//!
//! The inverse transform reuses the same tables through the conjugation
//! identity `idft(x) = conj(dft(conj(x)))/n`.

use fftmatvec_numeric::simd::pointwise_mul_assign;
use fftmatvec_numeric::{fma_pass, Complex, Real};

use crate::cache::{self, PlanHandle};
use crate::plan::FftDirection;

/// Precomputed Bluestein transform of length `n`.
pub struct BluesteinPlan<T: Real> {
    n: usize,
    pub(crate) m: usize,
    /// Shared power-of-two inner plan of length `m`.
    inner: PlanHandle<T>,
    /// `chirp[j] = e^{-πi j²/n}`, `j in 0..n`.
    chirp: Vec<Complex<T>>,
    /// Forward FFT (length `m`) of the wrapped conjugate chirp, times the
    /// inner inverse's `1/m` — an exact power of two, applied here so the
    /// convolution never holds the `m`-fold unscaled product (which
    /// overflows the 16-bit tiers' range).
    b_fft: Vec<Complex<T>>,
}

impl<T: Real> BluesteinPlan<T> {
    /// Build the plan. `n ≥ 2` (smaller sizes never reach Bluestein).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "BluesteinPlan requires n >= 2");
        let m = (2 * n - 1).next_power_of_two();
        let inner = cache::complex_plan::<T>(m);

        // chirp[j] = e^{-πi (j² mod 2n) / n}; reducing j² mod 2n keeps the
        // angle small, avoiding cancellation for large j.
        let chirp: Vec<Complex<T>> = (0..n)
            .map(|j| {
                let j2 = ((j as u128 * j as u128) % (2 * n as u128)) as f64;
                Complex::<f64>::expi(-std::f64::consts::PI * j2 / n as f64).cast()
            })
            .collect();

        // b[j] = conj(chirp[|j|]) wrapped circularly into length m.
        let mut b = vec![Complex::<T>::zero(); m];
        for j in 0..n {
            let c = chirp[j].conj();
            b[j] = c;
            if j != 0 {
                b[m - j] = c;
            }
        }
        let recip_m = T::from_usize(m).recip();
        let b_fft = inner.forward_vec(&b).into_iter().map(|v| v.scale(recip_m)).collect();

        BluesteinPlan { n, m, inner, chirp, b_fft }
    }

    /// Scratch requirement: the length-`m` chirped signal and its
    /// ping-pong partner.
    pub fn scratch_len(&self) -> usize {
        2 * self.m
    }

    /// Chirp-and-pad the input into `a` (length `m`); for the inverse,
    /// conjugate here (first half of the conj identity).
    fn load(&self, input: &[Complex<T>], a: &mut [Complex<T>], inverse: bool) {
        let (head, tail) = a.split_at_mut(self.n);
        chirp_in(input, &self.chirp, head, inverse);
        tail.fill(Complex::zero());
    }

    /// Circular convolution with the chirp kernel, in place in `a` with
    /// `work` as the inner ping-pong partner.
    fn convolve(&self, a: &mut [Complex<T>], work: &mut [Complex<T>]) {
        self.inner.process_inplace(a, work, FftDirection::Forward);
        // Pointwise multiply by the chirp kernel spectrum — vectorized
        // when a SIMD kernel applies (bit-identical either way).
        pointwise_mul_assign(a, &self.b_fft, false);
        // `b_fft` carries the `1/m`: scaling by a power of two commutes
        // with every rounding of the convolution, so the f32 / f64 bits
        // are those of scaling after the butterflies.
        self.inner.process_inplace_unscaled(a, work, FftDirection::Inverse);
    }

    /// Final chirp: `X[k] = c[k]·chirp[k]`, finishing the conj identity and
    /// `1/n` scaling for the inverse.
    fn store(&self, a: &[Complex<T>], output: &mut [Complex<T>], inverse: bool) {
        chirp_out(&a[..self.n], &self.chirp, output, inverse);
    }

    /// Transform `input` (length `n`) into `output` (length `n`).
    pub fn process(
        &self,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        dir: FftDirection,
    ) {
        assert_eq!(input.len(), self.n);
        assert_eq!(output.len(), self.n);
        assert!(scratch.len() >= self.scratch_len());
        let (a, rest) = scratch.split_at_mut(self.m);
        let work = &mut rest[..self.m];
        let inverse = dir == FftDirection::Inverse;
        self.load(input, a, inverse);
        self.convolve(a, work);
        self.store(a, output, inverse);
    }

    /// In-place transform of `buf` (length `n`). `buf` is only read during
    /// the initial chirp and only written during the final one, so no extra
    /// copy is needed.
    pub fn process_inplace(
        &self,
        buf: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        dir: FftDirection,
    ) {
        assert_eq!(buf.len(), self.n);
        assert!(scratch.len() >= self.scratch_len());
        let (a, rest) = scratch.split_at_mut(self.m);
        let work = &mut rest[..self.m];
        let inverse = dir == FftDirection::Inverse;
        self.load(buf, a, inverse);
        self.convolve(a, work);
        self.store(a, buf, inverse);
    }
}

fma_pass! {
    /// `a[j] = x[j]·chirp[j]`, with `x` conjugated first for the inverse.
    fn chirp_in<T: Real>(
        input: &[Complex<T>],
        chirp: &[Complex<T>],
        a: &mut [Complex<T>],
        inverse: bool,
    ) {
        for ((v, &x), &c) in a.iter_mut().zip(input).zip(chirp) {
            *v = if inverse { x.conj() } else { x } * c;
        }
    }
}

fma_pass! {
    /// `output[k] = a[k]·chirp[k]`, conjugated and scaled by `1/n` for the
    /// inverse.
    fn chirp_out<T: Real>(
        a: &[Complex<T>],
        chirp: &[Complex<T>],
        output: &mut [Complex<T>],
        inverse: bool,
    ) {
        let scale = T::from_usize(chirp.len()).recip();
        for ((o, &v), &c) in output.iter_mut().zip(a).zip(chirp) {
            *o = if inverse { (v * c).conj().scale(scale) } else { v * c };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::naive_dft;
    use crate::plan::FftPlan;
    use fftmatvec_numeric::SplitMix64;

    type C = Complex<f64>;

    fn random_signal(n: usize, seed: u64) -> Vec<C> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| C::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
    }

    fn run(plan: &BluesteinPlan<f64>, x: &[C], dir: FftDirection) -> Vec<C> {
        let mut out = vec![C::zero(); x.len()];
        let mut scratch = vec![C::zero(); plan.scratch_len()];
        plan.process(x, &mut out, &mut scratch, dir);
        out
    }

    #[test]
    fn forward_matches_naive_for_various_primes() {
        for n in [2usize, 3, 5, 7, 11, 13, 17, 67, 101, 257] {
            let plan = BluesteinPlan::<f64>::new(n);
            let x = random_signal(n, n as u64);
            let fast = run(&plan, &x, FftDirection::Forward);
            let mut slow = vec![C::zero(); n];
            naive_dft(&x, &mut slow, FftDirection::Forward);
            let err = fast.iter().zip(&slow).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-9, "n={n} err={err}");
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for n in [5usize, 67, 199] {
            let plan = BluesteinPlan::<f64>::new(n);
            let x = random_signal(n, 3 * n as u64);
            let freq = run(&plan, &x, FftDirection::Forward);
            let back = run(&plan, &freq, FftDirection::Inverse);
            let err = back.iter().zip(&x).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-10, "n={n} err={err}");
        }
    }

    #[test]
    fn inplace_matches_out_of_place() {
        let n = 101;
        let plan = BluesteinPlan::<f64>::new(n);
        let x = random_signal(n, 4);
        let mut scratch = vec![C::zero(); plan.scratch_len()];
        for dir in [FftDirection::Forward, FftDirection::Inverse] {
            let want = run(&plan, &x, dir);
            let mut buf = x.clone();
            plan.process_inplace(&mut buf, &mut scratch, dir);
            let err = buf.iter().zip(&want).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-13, "{dir:?} err={err}");
        }
    }

    #[test]
    fn composite_with_large_prime_factor() {
        // 2·67 exceeds MAX_RADIX in one factor; the top-level plan uses
        // Bluestein for the full length.
        let n = 134;
        let plan = FftPlan::<f64>::new(n);
        assert!(plan.is_bluestein());
        let x = random_signal(n, 1);
        let mut slow = vec![C::zero(); n];
        naive_dft(&x, &mut slow, FftDirection::Forward);
        let fast = plan.forward_vec(&x);
        let err = fast.iter().zip(&slow).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-9);
    }

    /// Relative l2 error of the `f16` forward transform of `n` values in
    /// `±scale` (one at `scale`), against the `f64` DFT of the same
    /// rounded input; `None` if any output is non-finite.
    fn f16_forward_error(n: usize, scale: f64) -> Option<f64> {
        use fftmatvec_numeric::half::f16;
        let mut rng = SplitMix64::new(n as u64);
        let mut x: Vec<Complex<f16>> = (0..n)
            .map(|_| {
                let mut v = || f16::from_f64(rng.uniform(-scale, scale));
                Complex::new(v(), v())
            })
            .collect();
        x[n / 3].re = f16::from_f64(scale);
        let got = FftPlan::<f16>::new(n).forward_vec(&x);
        if got.iter().any(|v| !v.re.is_finite() || !v.im.is_finite()) {
            return None;
        }
        let wide: Vec<C> = x.iter().map(|v| C::new(v.re.to_f64(), v.im.to_f64())).collect();
        let mut want = vec![C::zero(); n];
        naive_dft(&wide, &mut want, FftDirection::Forward);
        let diff: f64 = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (C::new(g.re.to_f64(), g.im.to_f64()) - *w).norm_sqr())
            .sum();
        let norm: f64 = want.iter().map(|w| w.norm_sqr()).sum();
        Some((diff / norm).sqrt())
    }

    #[test]
    fn f16_bluestein_keeps_the_range_of_a_radix_plan() {
        // The inner inverse's 1/m rides in the kernel spectrum, so the
        // convolution never holds the m-fold unscaled product: at max-abs
        // 16 and 64 every output is finite, and the error is no worse
        // than the largest radix plan's (n = 61, one table-driven stage).
        for scale in [16.0, 64.0] {
            let radix = f16_forward_error(61, scale).expect("radix plan stays finite");
            for n in [67usize, 97, 127] {
                assert!(FftPlan::<fftmatvec_numeric::half::f16>::new(n).is_bluestein());
                let err = f16_forward_error(n, scale)
                    .unwrap_or_else(|| panic!("n={n} at max-abs {scale}: non-finite output"));
                assert!(err <= radix, "n={n} at max-abs {scale}: error {err:.3e} > {radix:.3e}");
            }
        }
    }

    #[test]
    fn inner_length_is_power_of_two_and_big_enough() {
        let plan = BluesteinPlan::<f64>::new(100);
        assert!(plan.m.is_power_of_two());
        assert!(plan.m >= 199);
    }

    #[test]
    fn inner_plans_are_shared_across_bluestein_lengths() {
        // 67 and 101 both round up to m = 256; the cache must hand both
        // Bluestein plans the same inner plan object.
        let a = BluesteinPlan::<f64>::new(67);
        let b = BluesteinPlan::<f64>::new(101);
        assert_eq!(a.m, b.m);
        assert!(std::sync::Arc::ptr_eq(&a.inner, &b.inner));
    }
}
