//! Real-to-complex and complex-to-real transforms.
//!
//! FFTMatvec's time-domain vectors are real; using the packed half-length
//! trick halves both FFT work and — crucially for the paper's analysis —
//! the frequency-domain batch count: a real signal of length `n = 2·N_t`
//! has `n/2 + 1 = N_t + 1` independent complex bins, which is exactly the
//! SBGEMV batch size quoted in Section 2.4.
//!
//! The half-length complex plan is shared through [`crate::cache`] (so a
//! real plan and a complex plan of length `n/2` cost one twiddle set).
//! Packing pairs of reals into complex values is the identity on memory
//! (`Complex<T>` is two interleaved `T`s), so neither direction copies:
//! the forward transform runs the half plan out of place straight from
//! the caller's real input (viewed as `n/2` complex values) into scratch
//! and unpacks from there; the inverse repacks the spectrum into scratch
//! and runs the half plan out of place straight into the caller's real
//! output. Scratch is the packed signal plus the half plan's ping-pong
//! partner, `n/2 + half.scratch_len()` elements.
//!
//! The two mirror-pair loops (`unpack_pair`, `repack_pair`) are the only
//! arithmetic outside the half plan; they go through the crate's `simd`
//! dispatcher like the butterflies do (vector kernels for `f32`/`f64`,
//! one scalar body in an FMA context otherwise).
//!
//! FFTMatvec's signals are zero-padded series of a time-outer matrix, and
//! only the first half of each inverse is kept.
//! `RealFftPlan::forward_padded` and `RealFftPlan::inverse_unpadded`
//! take and give exactly that: the half plan's first pass reads the
//! series in place (rounding each sample through the pad tier, loading no
//! embedding zero) and its last pass stores only the kept samples, scaled
//! and routed through the unpad tier — the pad, cast, scale and unpad
//! passes of the batched pipeline folded into the transform, with the
//! same bits. Where no vector body takes one of those passes (the
//! portable level, the 16-bit tiers, odd radices), the first pass reads a
//! gathered copy of the series and the last pass a staged slice: the
//! scalar bodies only ever see slices.
//!
//! Conventions match [`crate::FftPlan`]: forward unscaled, inverse scaled
//! so `inverse(forward(x)) == x`.

use fftmatvec_numeric::{fma_pass, with_real, Complex, Precision, Real};

use crate::cache::{self, PlanHandle};
use crate::padded::{PaddedSeries, UnpaddedSeries};
use crate::plan::FftDirection;

/// Plan for transforms of real signals of even length `n`.
pub struct RealFftPlan<T: Real> {
    n: usize,
    /// Shared half-length complex plan (the batched driver's
    /// series-in-lanes path walks its stages).
    pub(crate) half: PlanHandle<T>,
    /// `w[k] = e^{-2πik/n}` for `k in 0..n/2` (unpack and repack
    /// twiddles).
    pub(crate) twiddles: Vec<Complex<T>>,
}

/// View an even-length real slice as interleaved complex pairs:
/// `z[j] = x[2j] + i·x[2j+1]`, the packed signal of the half-length trick.
fn as_pairs<T: Real>(x: &[T]) -> &[Complex<T>] {
    assert_eq!(x.len() % 2, 0, "packed view needs an even length");
    // SAFETY: `Complex<T>` is `#[repr(C)] { re: T, im: T }` — the size of
    // two `T`s, the alignment of one, no padding — so `2h` initialized
    // `T`s are exactly `h` valid `Complex<T>`s (the inverse of
    // `fftmatvec_numeric::complex::as_flat`).
    unsafe { core::slice::from_raw_parts(x.as_ptr() as *const Complex<T>, x.len() / 2) }
}

/// Mutable variant of [`as_pairs`].
fn as_pairs_mut<T: Real>(x: &mut [T]) -> &mut [Complex<T>] {
    assert_eq!(x.len() % 2, 0, "packed view needs an even length");
    // SAFETY: as in `as_pairs`; the exclusive borrow transfers.
    unsafe { core::slice::from_raw_parts_mut(x.as_mut_ptr() as *mut Complex<T>, x.len() / 2) }
}

/// One mirror pair of the R2C unpack: split `Z = FFT_h(z)` at `k` and
/// `h − k` into the spectra of the even and odd samples and stitch
/// `X[k]`, `X[h − k]`. The one expression tree of the unpack loop (the
/// vector kernels evaluate it per lane); `half` is `0.5`, converted once
/// by the caller.
#[inline(always)]
pub(crate) fn unpack_pair<T: Real>(
    z: &[Complex<T>],
    twiddles: &[Complex<T>],
    output: &mut [Complex<T>],
    k: usize,
    half: T,
) {
    let h = z.len();
    let zk = z[k];
    let zc = z[h - k].conj();
    let ze = (zk + zc).scale(half);
    // zo = (zk − zc)/(2i) = −i·(zk − zc)/2
    let d = (zk - zc).scale(half);
    let zo = Complex::new(d.im, -d.re);
    let t = twiddles[k] * zo;
    output[k] = ze + t;
    output[h - k] = (ze - t).conj();
}

/// One mirror pair of the C2R repack: `Z[k]`, `Z[h − k]` (the FFT of the
/// packed signal) from `X[k]`, `X[h − k]`; the inverse of [`unpack_pair`].
#[inline(always)]
pub(crate) fn repack_pair<T: Real>(
    spectrum: &[Complex<T>],
    twiddles: &[Complex<T>],
    z: &mut [Complex<T>],
    k: usize,
    half: T,
) {
    let h = z.len();
    let xk = spectrum[k];
    let xc = spectrum[h - k].conj();
    let ze = (xk + xc).scale(half);
    let t = (xk - xc).scale(half);
    // zo = conj(w^k)·t
    let zo = twiddles[k].conj() * t;
    // Z[k] = ze + i·zo ; Z[h−k] = conj(ze) + i·conj(zo)
    z[k] = Complex::new(ze.re - zo.im, ze.im + zo.re);
    let zec = ze.conj();
    let zoc = zo.conj();
    z[h - k] = Complex::new(zec.re - zoc.im, zec.im + zoc.re);
}

fma_pass! {
    /// Scalar mirror-pair loop of the unpack: every `k` with `0 < 2k < h`.
    fn unpack_pairs_scalar<T: Real>(
        z: &[Complex<T>],
        twiddles: &[Complex<T>],
        output: &mut [Complex<T>],
    ) {
        let half = T::from_f64(0.5);
        for k in 1..z.len().div_ceil(2) {
            unpack_pair(z, twiddles, output, k, half);
        }
    }
}

fma_pass! {
    /// Scalar mirror-pair loop of the repack.
    fn repack_pairs_scalar<T: Real>(
        spectrum: &[Complex<T>],
        twiddles: &[Complex<T>],
        z: &mut [Complex<T>],
    ) {
        let half = T::from_f64(0.5);
        for k in 1..z.len().div_ceil(2) {
            repack_pair(spectrum, twiddles, z, k, half);
        }
    }
}

impl<T: Real> RealFftPlan<T> {
    /// Build a plan. `n` must be even and ≥ 2 (FFTMatvec always transforms
    /// padded signals of length `2·N_t`). Prefer [`crate::cache::real_plan`]
    /// for a shared, cached plan.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2 && n % 2 == 0, "RealFftPlan requires even n >= 2, got {n}");
        let h = n / 2;
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let twiddles = (0..h).map(|k| Complex::<f64>::expi(step * k as f64).cast()).collect();
        RealFftPlan { n, half: cache::complex_plan::<T>(h), twiddles }
    }

    /// Real signal length `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of complex bins produced by the forward transform: `n/2 + 1`.
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Scratch requirement (complex elements) for both directions: the
    /// packed half-length signal plus the half plan's own scratch.
    pub fn scratch_len(&self) -> usize {
        self.n / 2 + self.half.scratch_len()
    }

    /// Forward R2C: `input.len() == n`, `output.len() == n/2 + 1`.
    pub fn forward(&self, input: &[T], output: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        let h = self.n / 2;
        assert_eq!(input.len(), self.n, "RealFftPlan forward input length");
        assert_eq!(output.len(), h + 1, "RealFftPlan forward output length");
        assert!(scratch.len() >= self.scratch_len(), "RealFftPlan scratch too small");
        let (z, inner_scratch) = scratch.split_at_mut(h);

        // Z = FFT_h(z) of the packed signal z[j] = x[2j] + i·x[2j+1].
        self.half.process(as_pairs(input), z, inner_scratch, FftDirection::Forward);

        self.unpack(z, output);
    }

    /// Forward R2C of a zero-padded series read in place from a
    /// time-outer/series-inner `f64` matrix: sample `t < n/2` is
    /// `input[t·stride]`, rounded through tier `pad` into `T`, and samples
    /// `n/2..n` are the circulant embedding's zeros. Equals, on bits,
    /// [`Self::forward`] of that padded signal, but nothing is gathered:
    /// the half plan's first pass reads the samples where they are and
    /// never loads a zero. (When no vector body takes that pass, and for
    /// tiny and Bluestein half plans, the packed signal is gathered into
    /// scratch and transformed there.) `output.len() == n/2 + 1`.
    pub(crate) fn forward_padded(
        &self,
        input: &[f64],
        stride: usize,
        pad: Precision,
        output: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
    ) {
        let h = self.n / 2;
        assert_eq!(output.len(), h + 1, "RealFftPlan forward output length");
        assert!(scratch.len() >= self.scratch_len(), "RealFftPlan scratch too small");
        let (z, inner_scratch) = scratch.split_at_mut(h);
        with_real!(pad, P => {
            let src = PaddedSeries::<P>::new(input, stride, h);
            let engine = self.half.iterative();
            if !engine.is_some_and(|e| e.process(&src, z, inner_scratch, FftDirection::Forward)) {
                for (j, v) in z.iter_mut().enumerate() {
                    *v = src.packed(j);
                }
                self.half.process_inplace(z, inner_scratch, FftDirection::Forward);
            }
        });
        self.unpack(z, output);
    }

    /// Unpack `Z = FFT_h(z)` into the `h + 1` bins of the real spectrum.
    #[inline(always)]
    fn unpack(&self, z: &[Complex<T>], output: &mut [Complex<T>]) {
        let h = self.n / 2;
        // Split Z into the spectra of even/odd samples and stitch.
        output[0] = Complex::from_real(z[0].re + z[0].im);
        output[h] = Complex::from_real(z[0].re - z[0].im);
        if h % 2 == 0 {
            // Self-paired bin: X[h/2] = conj(Z[h/2]).
            output[h / 2] = z[h / 2].conj();
        }
        if !crate::simd::real_unpack_pairs(z, &self.twiddles, output) {
            unpack_pairs_scalar(z, &self.twiddles, output);
        }
    }

    /// Inverse C2R: `spectrum.len() == n/2 + 1`, `output.len() == n`.
    /// Includes the `1/n` scaling so it inverts [`RealFftPlan::forward`].
    pub fn inverse(&self, spectrum: &[Complex<T>], output: &mut [T], scratch: &mut [Complex<T>]) {
        let h = self.n / 2;
        assert_eq!(spectrum.len(), h + 1, "RealFftPlan inverse spectrum length");
        assert_eq!(output.len(), self.n, "RealFftPlan inverse output length");
        assert!(scratch.len() >= self.scratch_len(), "RealFftPlan scratch too small");
        let (z, inner_scratch) = scratch.split_at_mut(h);

        // Repack the spectrum into Z (the FFT of the packed signal).
        self.repack(spectrum, z);

        // z = IFFT_h(Z) (scaled 1/h), landing in the output viewed as
        // packed pairs; the even/odd stitching above already accounts for
        // the remaining factor of two, so the interleaved reals are the
        // exact inverse.
        self.half.process(z, as_pairs_mut(output), inner_scratch, FftDirection::Inverse);
    }

    /// Inverse C2R (scaled by `1/n`) that keeps only samples `t < n/2`,
    /// routes each through tier `unpad` and stores it at
    /// `output[t·stride]` of a time-outer/series-inner `f64` matrix.
    /// Equals, on bits, [`Self::inverse`] followed by that unpad — the
    /// route is the identity when `T` widens exactly into `unpad` — but
    /// the half plan's last pass computes only the outputs that hold a
    /// kept sample and stores them there, scaled. (Tiny and Bluestein
    /// half plans transform in scratch and store from there.)
    /// `spectrum.len() == n/2 + 1`.
    pub(crate) fn inverse_unpadded(
        &self,
        spectrum: &[Complex<T>],
        output: &mut [f64],
        stride: usize,
        unpad: Precision,
        scratch: &mut [Complex<T>],
    ) {
        let h = self.n / 2;
        assert!(stride >= 1, "unpadded series stride must be positive");
        assert!(output.len() > (h - 1) * stride, "unpadded series runs past its output");
        // SAFETY: the exclusive borrow of `output` covers every
        // `t·stride`, `t < h`, as just asserted.
        unsafe { self.inverse_unpadded_raw(spectrum, output.as_mut_ptr(), stride, unpad, scratch) }
    }

    /// [`Self::inverse_unpadded`] into a raw output: the batched driver's
    /// entry, whose series interleave in one output matrix.
    ///
    /// # Safety
    ///
    /// `output.add(t·stride)` is valid for writes for every `t < n/2`, and
    /// nothing else accesses those elements during the call.
    pub(crate) unsafe fn inverse_unpadded_raw(
        &self,
        spectrum: &[Complex<T>],
        output: *mut f64,
        stride: usize,
        unpad: Precision,
        scratch: &mut [Complex<T>],
    ) {
        let h = self.n / 2;
        assert_eq!(spectrum.len(), h + 1, "RealFftPlan inverse spectrum length");
        assert!(scratch.len() >= self.scratch_len(), "RealFftPlan scratch too small");
        let (z, inner_scratch) = scratch.split_at_mut(h);
        self.repack(spectrum, z);
        let route = if T::PRECISION.widens_exactly_to(unpad) { Precision::Double } else { unpad };
        with_real!(route, Q => {
            // SAFETY: the caller's contract, for `nt = h`.
            let mut sink = UnpaddedSeries::<Q>::new(output, stride, h, 1);
            match self.half.iterative() {
                Some(engine) => engine.inverse_unpadded(z, inner_scratch, &mut sink),
                None => {
                    self.half.process_inplace(z, inner_scratch, FftDirection::Inverse);
                    for (j, &v) in z[..sink.live()].iter().enumerate() {
                        sink.put_packed(j, v);
                    }
                }
            }
        });
    }

    /// Repack the `h + 1` bins of a real spectrum into `Z`, the FFT of the
    /// packed signal.
    #[inline(always)]
    fn repack(&self, spectrum: &[Complex<T>], z: &mut [Complex<T>]) {
        let h = self.n / 2;
        let half = T::from_f64(0.5);
        z[0] = Complex::new(
            (spectrum[0].re + spectrum[h].re) * half,
            (spectrum[0].re - spectrum[h].re) * half,
        );
        if h % 2 == 0 {
            z[h / 2] = spectrum[h / 2].conj();
        }
        if !crate::simd::real_repack_pairs(spectrum, &self.twiddles, z) {
            repack_pairs_scalar(spectrum, &self.twiddles, z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::naive_dft;
    use fftmatvec_numeric::SplitMix64;

    type C = Complex<f64>;

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    /// Reference: complex DFT of the real signal, truncated to n/2+1 bins.
    fn reference_spectrum(x: &[f64]) -> Vec<C> {
        let n = x.len();
        let cx: Vec<C> = x.iter().map(|&v| C::from_real(v)).collect();
        let mut full = vec![C::zero(); n];
        naive_dft(&cx, &mut full, FftDirection::Forward);
        full[..n / 2 + 1].to_vec()
    }

    fn forward(plan: &RealFftPlan<f64>, x: &[f64]) -> Vec<C> {
        let mut out = vec![C::zero(); plan.spectrum_len()];
        let mut scratch = vec![C::zero(); plan.scratch_len()];
        plan.forward(x, &mut out, &mut scratch);
        out
    }

    fn inverse(plan: &RealFftPlan<f64>, s: &[C]) -> Vec<f64> {
        let mut out = vec![0.0; plan.len()];
        let mut scratch = vec![C::zero(); plan.scratch_len()];
        plan.inverse(s, &mut out, &mut scratch);
        out
    }

    #[test]
    fn forward_matches_complex_dft() {
        for n in [2usize, 4, 6, 8, 10, 16, 20, 30, 64, 100, 200] {
            let x = random_real(n, n as u64);
            let plan = RealFftPlan::<f64>::new(n);
            let fast = forward(&plan, &x);
            let slow = reference_spectrum(&x);
            let err = fast.iter().zip(&slow).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-9, "n={n} err={err}");
        }
    }

    #[test]
    fn roundtrip_exact_lengths() {
        for n in [2usize, 4, 8, 50, 128, 2000] {
            let x = random_real(n, 7 * n as u64 + 1);
            let plan = RealFftPlan::<f64>::new(n);
            let spec = forward(&plan, &x);
            let back = inverse(&plan, &spec);
            let err = back.iter().zip(&x).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-12, "n={n} err={err}");
        }
    }

    #[test]
    fn scratch_is_half_plus_inner() {
        // The in-place half transform tightened the contract from the
        // seed's `n + inner` to `n/2 + inner`.
        let plan = RealFftPlan::<f64>::new(2048);
        assert_eq!(plan.scratch_len(), 1024 + 1024);
        let tiny = RealFftPlan::<f64>::new(4); // half plan is single-stage
        assert_eq!(tiny.scratch_len(), 2);
    }

    #[test]
    fn dc_and_nyquist_are_real() {
        let n = 32;
        let x = random_real(n, 3);
        let plan = RealFftPlan::<f64>::new(n);
        let spec = forward(&plan, &x);
        assert_eq!(spec[0].im, 0.0);
        assert_eq!(spec[n / 2].im, 0.0);
        let sum: f64 = x.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-12);
        let alt: f64 = x.iter().enumerate().map(|(j, &v)| if j % 2 == 0 { v } else { -v }).sum();
        assert!((spec[n / 2].re - alt).abs() < 1e-12);
    }

    #[test]
    fn spectrum_len_is_nt_plus_one() {
        // n = 2·N_t ⇒ N_t + 1 bins, the paper's SBGEMV batch count.
        let nt = 1000;
        let plan = RealFftPlan::<f64>::new(2 * nt);
        assert_eq!(plan.spectrum_len(), nt + 1);
    }

    #[test]
    fn f32_roundtrip() {
        let n = 2000usize;
        let mut rng = SplitMix64::new(11);
        let x: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0) as f32).collect();
        let plan = RealFftPlan::<f32>::new(n);
        let mut spec = vec![Complex::<f32>::zero(); plan.spectrum_len()];
        let mut scratch = vec![Complex::<f32>::zero(); plan.scratch_len()];
        plan.forward(&x, &mut spec, &mut scratch);
        let mut back = vec![0.0f32; n];
        plan.inverse(&spec, &mut back, &mut scratch);
        let err = back.iter().zip(&x).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(err < 1e-5, "err={err}");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_length_rejected() {
        let _ = RealFftPlan::<f64>::new(9);
    }
}
