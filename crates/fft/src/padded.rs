//! The circulant embedding's two memory phases, folded into the real
//! transform's first and last passes.
//!
//! FFTMatvec transforms each time series zero-padded to twice its length
//! (the block-circulant embedding) and keeps only the first half of each
//! inverse transform. Both ends touch the caller's vectors in the
//! time-outer/series-inner layout (TOSI: sample `t` of series `s` at
//! `x[t·n_series + s]`). The two views here let the passes of a real
//! transform read and write that layout in place:
//!
//! * [`PaddedSeries`] is one series of a TOSI `f64` matrix seen as the
//!   packed signal of the half-length trick, `z[j] = x[2j] + i·x[2j+1]`,
//!   over the padded length `2·nt`: every sample is rounded through the
//!   pad tier `P` into the transform tier, and `z[j]` is `+0` for
//!   `j ≥ ⌈nt/2⌉` without being stored anywhere. For odd `nt` the last
//!   live value is half real (`x[nt]` is an embedding zero).
//! * [`UnpaddedSeries`] is one series of a TOSI `f64` output that keeps
//!   samples `t < nt` of the inverse transform, each routed through the
//!   unpad tier `Q` (`Q = f64` when the transform tier widens exactly into
//!   the unpad tier, so the route is the identity).
//!
//! The rounding is the composition of the kernels the pipeline used to
//! run: `T::from_f64(P::from_f64(x).to_f64())` is the pad's store into
//! tier `P` followed by the cast into tier `T`; `Q::from_f64(v.to_f64())`
//! is the unpad's route. The zeros the first pass reads are the `+0`
//! values the pad wrote, so every value meets the same expression tree.

use core::marker::PhantomData;

use fftmatvec_numeric::{Complex, Real};

/// One series of a TOSI `f64` matrix as the packed, zero-padded input of
/// a real transform of length `2·nt` (see the module docs).
pub(crate) struct PaddedSeries<'a, P> {
    /// Sample `t` of the series is `x[t·stride]`.
    x: &'a [f64],
    stride: usize,
    nt: usize,
    pad: PhantomData<P>,
}

impl<P> Clone for PaddedSeries<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for PaddedSeries<'_, P> {}

impl<'a, P: Real> PaddedSeries<'a, P> {
    /// The series whose sample `t < nt` is `x[t·stride]`.
    pub(crate) fn new(x: &'a [f64], stride: usize, nt: usize) -> Self {
        assert!(stride >= 1, "padded series stride must be positive");
        assert!(nt == 0 || x.len() > (nt - 1) * stride, "padded series runs past its input");
        PaddedSeries { x, stride, nt, pad: PhantomData }
    }

    /// Samples per series (the unpadded length).
    #[inline(always)]
    pub(crate) fn nt(&self) -> usize {
        self.nt
    }

    /// Distance between consecutive samples in the input.
    #[inline(always)]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Elements of the input slice, from sample 0 on: how far past a
    /// sample a reader of neighbouring columns may go.
    #[inline(always)]
    pub(crate) fn extent(&self) -> usize {
        self.x.len()
    }

    /// Where sample `t` is read.
    ///
    /// # Safety
    ///
    /// `t < nt`.
    #[inline(always)]
    pub(crate) unsafe fn at(&self, t: usize) -> *const f64 {
        debug_assert!(t < self.nt);
        self.x.as_ptr().add(t * self.stride)
    }

    /// Sample `t < nt`, rounded through the pad tier into tier `T`.
    #[inline(always)]
    pub(crate) fn sample<T: Real>(&self, t: usize) -> T {
        T::from_f64(P::from_f64(self.x[t * self.stride]).to_f64())
    }

    /// [`Self::sample`] without the bounds check.
    ///
    /// # Safety
    ///
    /// `t < nt`.
    #[inline(always)]
    pub(crate) unsafe fn sample_unchecked<T: Real>(&self, t: usize) -> T {
        // SAFETY: `new` checked `x.len() > (nt − 1)·stride`, and `t < nt`.
        T::from_f64(P::from_f64(*self.at(t)).to_f64())
    }

    /// Packed value `z[j]` of the padded series: `+0` past the live half.
    #[inline(always)]
    pub(crate) fn packed<T: Real>(&self, j: usize) -> Complex<T> {
        let t = 2 * j;
        if t + 1 < self.nt {
            Complex::new(self.sample(t), self.sample(t + 1))
        } else if t < self.nt {
            Complex::new(self.sample(t), T::ZERO)
        } else {
            Complex::zero()
        }
    }
}

/// One series of a TOSI `f64` output that keeps the first `nt` samples of
/// an inverse real transform of length `2·nt` (see the module docs).
pub(crate) struct UnpaddedSeries<Q> {
    /// Sample `t` of the series lands in `*out.add(t·stride)`.
    out: *mut f64,
    stride: usize,
    nt: usize,
    route: PhantomData<Q>,
}

impl<Q: Real> UnpaddedSeries<Q> {
    /// The series whose sample `t < nt` lands in `*out.add(t·stride)`.
    ///
    /// # Safety
    ///
    /// `out.add(t·stride)` is valid for writes for every `t < nt`, and
    /// nothing else reads or writes those elements while the value lives.
    pub(crate) unsafe fn new(out: *mut f64, stride: usize, nt: usize) -> Self {
        UnpaddedSeries { out, stride, nt, route: PhantomData }
    }

    /// Samples per series (the unpadded length).
    #[inline(always)]
    pub(crate) fn nt(&self) -> usize {
        self.nt
    }

    /// Distance between consecutive samples in the output.
    #[inline(always)]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Where sample `t` is stored.
    ///
    /// # Safety
    ///
    /// `t < nt`.
    #[inline(always)]
    pub(crate) unsafe fn at(&self, t: usize) -> *mut f64 {
        debug_assert!(t < self.nt);
        self.out.add(t * self.stride)
    }

    /// Complex values `z[j]` of the packed output that hold a kept sample:
    /// `⌈nt/2⌉`.
    #[inline(always)]
    pub(crate) fn live(&self) -> usize {
        self.nt.div_ceil(2)
    }

    /// Store sample `t < nt`, routed through the unpad tier.
    #[inline(always)]
    pub(crate) fn put<T: Real>(&mut self, t: usize, v: T) {
        assert!(t < self.nt, "unpadded sample {t} past {}", self.nt);
        // SAFETY: `t < nt`, just checked.
        unsafe { self.put_unchecked(t, v) };
    }

    /// [`Self::put`] without the bounds check.
    ///
    /// # Safety
    ///
    /// `t < nt`.
    #[inline(always)]
    pub(crate) unsafe fn put_unchecked<T: Real>(&mut self, t: usize, v: T) {
        // SAFETY: `t < nt`, the extent `new`'s caller guaranteed.
        *self.at(t) = Q::from_f64(v.to_f64()).to_f64();
    }

    /// Store the kept samples `2j` and (when `2j + 1 < nt`) `2j + 1` of
    /// the packed output value `z[j]`, `j < live()`.
    #[inline(always)]
    pub(crate) fn put_packed<T: Real>(&mut self, j: usize, v: Complex<T>) {
        self.put(2 * j, v.re);
        if 2 * j + 1 < self.nt {
            self.put(2 * j + 1, v.im);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::half::f16;

    #[test]
    fn packed_values_round_through_the_pad_tier_and_pad_with_positive_zeros() {
        // Two series, nt = 3, TOSI: x[t·2 + s].
        let x = [1.0 + 2f64.powi(-30), -1.0, 2.0, -2.0, 3.0, -0.0];
        let s1 = PaddedSeries::<f64>::new(&x[1..], 2, 3);
        assert_eq!(s1.packed::<f64>(0), Complex::new(-1.0, -2.0));
        // The half-real value keeps the sample's −0 and pads with +0.
        let last = s1.packed::<f64>(1);
        assert_eq!((last.re.to_bits(), last.im.to_bits()), ((-0.0f64).to_bits(), 0));
        assert_eq!(s1.packed::<f64>(2).re.to_bits(), 0);
        // Rounding through f32 loses the low bits, then widens exactly.
        let s0 = PaddedSeries::<f32>::new(&x, 2, 3);
        assert_eq!(s0.packed::<f64>(0).re, 1.0);
        assert_eq!(s0.sample::<f16>(2), f16::from_f64(3.0));
    }

    #[test]
    #[should_panic(expected = "runs past its input")]
    fn a_short_input_is_rejected() {
        let _ = PaddedSeries::<f64>::new(&[0.0; 5], 2, 4);
    }

    #[test]
    fn kept_samples_land_at_their_stride_through_the_route() {
        let mut out = [f64::NAN; 6];
        // SAFETY: t·2 < 6 for t < 3, and `out` is borrowed by nothing else.
        let mut sink = unsafe { UnpaddedSeries::<f32>::new(out.as_mut_ptr(), 2, 3) };
        assert_eq!(sink.live(), 2);
        sink.put_packed(0, Complex::new(1.0 + 2f64.powi(-30), 2.0));
        sink.put_packed(1, Complex::new(3.0, f64::INFINITY));
        assert_eq!(out[0], 1.0, "routed through f32");
        assert_eq!([out[2], out[4]], [2.0, 3.0]);
        assert!(out[1].is_nan() && out[3].is_nan() && out[5].is_nan(), "other series untouched");
    }
}
