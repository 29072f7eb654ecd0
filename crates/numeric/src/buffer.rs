//! Dynamically typed vectors holding data in any lattice precision.
//!
//! The mixed-precision pipeline (Section 3.2) tracks a *current working
//! precision* through the five matvec phases; a phase whose configured
//! compute precision differs from the working precision triggers a cast.
//! [`RealBuffer`] and [`ComplexBuffer`] are the storage behind that: a
//! vector tagged with its precision, plus the cast kernels, covering all
//! four tiers of the extended lattice (`h`/`b`/`s`/`d`). Byte counts for
//! the bandwidth model are exposed so fused cast+memory phases can be
//! costed correctly.
//!
//! Cast semantics: every conversion performs exactly one RTNE rounding
//! from the source value into the target storage (see [`crate::half`]
//! for the single-rounding contract of the 16-bit tiers). Widening
//! casts are exact. The `16-bit ↔ f32` pairs run on the batched SIMD
//! kernels in [`crate::simd`]; all pairs are bit-identical to the
//! per-element `Real::from_f64` reference path.

use crate::complex::Complex;
use crate::half::{bf16, f16};
use crate::precision::Precision;
use crate::real::Real;
use crate::with_real;

/// A real vector stored in one of the four precisions.
#[derive(Clone, Debug, PartialEq)]
pub enum RealBuffer {
    F16(Vec<f16>),
    BF16(Vec<bf16>),
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl From<Vec<f16>> for RealBuffer {
    fn from(v: Vec<f16>) -> Self {
        RealBuffer::F16(v)
    }
}
impl From<Vec<bf16>> for RealBuffer {
    fn from(v: Vec<bf16>) -> Self {
        RealBuffer::BF16(v)
    }
}
impl From<Vec<f32>> for RealBuffer {
    fn from(v: Vec<f32>) -> Self {
        RealBuffer::F32(v)
    }
}
impl From<Vec<f64>> for RealBuffer {
    fn from(v: Vec<f64>) -> Self {
        RealBuffer::F64(v)
    }
}

impl RealBuffer {
    /// Zero-filled buffer of length `n` in precision `p`.
    pub fn zeros(p: Precision, n: usize) -> Self {
        with_real!(p, T => RealBuffer::from(vec![T::ZERO; n]))
    }

    /// Build from `f64` data, rounding if `p` is narrower.
    pub fn from_f64(p: Precision, data: &[f64]) -> Self {
        with_real!(p, T => {
            RealBuffer::from(data.iter().map(|&x| T::from_f64(x)).collect::<Vec<T>>())
        })
    }

    /// Turn `self` into a zero-filled buffer of precision `p` and length
    /// `n`, **reusing the existing allocation** whenever the variant
    /// already matches (the workspace-reuse primitive behind the
    /// zero-allocation `apply_into` paths: after warm-up, a pipeline that
    /// keeps its configuration resets the same storage every apply).
    pub fn reset(&mut self, p: Precision, n: usize) {
        fn fill<T: Real>(v: &mut Vec<T>, n: usize) {
            v.clear();
            v.resize(n, T::ZERO);
        }
        match (p, &mut *self) {
            (Precision::Half, RealBuffer::F16(v)) => fill(v, n),
            (Precision::BFloat16, RealBuffer::BF16(v)) => fill(v, n),
            (Precision::Single, RealBuffer::F32(v)) => fill(v, n),
            (Precision::Double, RealBuffer::F64(v)) => fill(v, n),
            _ => *self = RealBuffer::zeros(p, n),
        }
    }

    /// Like [`RealBuffer::reset`] but without zeroing retained contents:
    /// element values are **unspecified** afterwards. For callers that
    /// overwrite every element before reading — in steady state (variant
    /// and length unchanged) this is O(1), not an O(n) memset per apply.
    pub fn reset_for_overwrite(&mut self, p: Precision, n: usize) {
        fn grow<T: Real>(v: &mut Vec<T>, n: usize) {
            v.resize(n, T::ZERO);
        }
        match (p, &mut *self) {
            (Precision::Half, RealBuffer::F16(v)) => grow(v, n),
            (Precision::BFloat16, RealBuffer::BF16(v)) => grow(v, n),
            (Precision::Single, RealBuffer::F32(v)) => grow(v, n),
            (Precision::Double, RealBuffer::F64(v)) => grow(v, n),
            _ => *self = RealBuffer::zeros(p, n),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        match self {
            RealBuffer::F16(v) => v.len(),
            RealBuffer::BF16(v) => v.len(),
            RealBuffer::F32(v) => v.len(),
            RealBuffer::F64(v) => v.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn precision(&self) -> Precision {
        match self {
            RealBuffer::F16(_) => Precision::Half,
            RealBuffer::BF16(_) => Precision::BFloat16,
            RealBuffer::F32(_) => Precision::Single,
            RealBuffer::F64(_) => Precision::Double,
        }
    }

    /// Total payload size in bytes (for the bandwidth model).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.len() * self.precision().real_bytes()
    }

    /// Element as `f64` (test/diagnostic path, not a hot loop).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            RealBuffer::F16(v) => v[i].to_f64(),
            RealBuffer::BF16(v) => v[i].to_f64(),
            RealBuffer::F32(v) => v[i] as f64,
            RealBuffer::F64(v) => v[i],
        }
    }

    /// Widen/copy out to an `f64` vector (reference-precision view).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            RealBuffer::F16(v) => v.iter().map(|&x| x.to_f64()).collect(),
            RealBuffer::BF16(v) => v.iter().map(|&x| x.to_f64()).collect(),
            RealBuffer::F32(v) => v.iter().map(|&x| x as f64).collect(),
            RealBuffer::F64(v) => v.clone(),
        }
    }

    /// The cast kernel: convert to precision `p`. A same-precision cast
    /// is a no-op returning `self` unchanged (the pipeline's fusion logic
    /// never emits those, but the API keeps it total).
    ///
    /// The `16-bit ↔ f32` pairs route through the batched SIMD kernels
    /// ([`crate::simd`]); every other pair is a per-element loop through
    /// `f64`. Both paths are bit-identical to `Real::from_f64` rounding.
    pub fn cast(self, p: Precision) -> Self {
        match (&self, p) {
            (RealBuffer::F16(v), Precision::Single) => {
                let mut out = vec![0f32; v.len()];
                crate::simd::widen_f16_to_f32(v, &mut out);
                return RealBuffer::F32(out);
            }
            (RealBuffer::BF16(v), Precision::Single) => {
                let mut out = vec![0f32; v.len()];
                crate::simd::widen_bf16_to_f32(v, &mut out);
                return RealBuffer::F32(out);
            }
            (RealBuffer::F32(v), Precision::Half) => {
                let mut out = vec![f16::from_bits(0); v.len()];
                crate::simd::narrow_f32_to_f16(v, &mut out);
                return RealBuffer::F16(out);
            }
            (RealBuffer::F32(v), Precision::BFloat16) => {
                let mut out = vec![bf16::from_bits(0); v.len()];
                crate::simd::narrow_f32_to_bf16(v, &mut out);
                return RealBuffer::BF16(out);
            }
            _ => {}
        }
        if self.precision() == p {
            return self;
        }
        with_real!(p, T => {
            let out: Vec<T> = match &self {
                RealBuffer::F16(v) => v.iter().map(|&x| T::from_f64(x.to_f64())).collect(),
                RealBuffer::BF16(v) => v.iter().map(|&x| T::from_f64(x.to_f64())).collect(),
                RealBuffer::F32(v) => v.iter().map(|&x| T::from_f64(x as f64)).collect(),
                RealBuffer::F64(v) => v.iter().map(|&x| T::from_f64(x)).collect(),
            };
            RealBuffer::from(out)
        })
    }

    pub fn as_f16(&self) -> Option<&[f16]> {
        match self {
            RealBuffer::F16(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bf16(&self) -> Option<&[bf16]> {
        match self {
            RealBuffer::BF16(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            RealBuffer::F32(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            RealBuffer::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Elementwise accumulate `self += other`, in `self`'s precision
    /// (16-bit accumulators round after every add — the storage-rounding
    /// compute model). Used by the phase-5 reduction when summing partial
    /// outputs.
    pub fn accumulate(&mut self, other: &RealBuffer) {
        assert_eq!(self.len(), other.len(), "accumulate length mismatch");
        fn acc<T: Real>(v: &mut [T], other: &RealBuffer) {
            for (i, x) in v.iter_mut().enumerate() {
                *x += T::from_f64(other.get(i));
            }
        }
        match self {
            RealBuffer::F16(v) => acc(v, other),
            RealBuffer::BF16(v) => acc(v, other),
            RealBuffer::F32(v) => acc(v, other),
            RealBuffer::F64(v) => acc(v, other),
        }
    }
}

/// A complex vector stored in one of the four precisions.
#[derive(Clone, Debug, PartialEq)]
pub enum ComplexBuffer {
    C16(Vec<Complex<f16>>),
    CB16(Vec<Complex<bf16>>),
    C32(Vec<Complex<f32>>),
    C64(Vec<Complex<f64>>),
}

impl From<Vec<Complex<f16>>> for ComplexBuffer {
    fn from(v: Vec<Complex<f16>>) -> Self {
        ComplexBuffer::C16(v)
    }
}
impl From<Vec<Complex<bf16>>> for ComplexBuffer {
    fn from(v: Vec<Complex<bf16>>) -> Self {
        ComplexBuffer::CB16(v)
    }
}
impl From<Vec<Complex<f32>>> for ComplexBuffer {
    fn from(v: Vec<Complex<f32>>) -> Self {
        ComplexBuffer::C32(v)
    }
}
impl From<Vec<Complex<f64>>> for ComplexBuffer {
    fn from(v: Vec<Complex<f64>>) -> Self {
        ComplexBuffer::C64(v)
    }
}

impl ComplexBuffer {
    pub fn zeros(p: Precision, n: usize) -> Self {
        with_real!(p, T => ComplexBuffer::from(vec![Complex::<T>::zero(); n]))
    }

    pub fn from_c64(p: Precision, data: &[Complex<f64>]) -> Self {
        with_real!(p, T => {
            ComplexBuffer::from(data.iter().map(|z| z.cast::<T>()).collect::<Vec<_>>())
        })
    }

    /// Turn `self` into a zero-filled buffer of precision `p` and length
    /// `n`, reusing the existing allocation when the variant matches (see
    /// [`RealBuffer::reset`]).
    pub fn reset(&mut self, p: Precision, n: usize) {
        fn fill<T: Real>(v: &mut Vec<Complex<T>>, n: usize) {
            v.clear();
            v.resize(n, Complex::zero());
        }
        match (p, &mut *self) {
            (Precision::Half, ComplexBuffer::C16(v)) => fill(v, n),
            (Precision::BFloat16, ComplexBuffer::CB16(v)) => fill(v, n),
            (Precision::Single, ComplexBuffer::C32(v)) => fill(v, n),
            (Precision::Double, ComplexBuffer::C64(v)) => fill(v, n),
            _ => *self = ComplexBuffer::zeros(p, n),
        }
    }

    /// Like [`ComplexBuffer::reset`] but without zeroing retained
    /// contents (see [`RealBuffer::reset_for_overwrite`]).
    pub fn reset_for_overwrite(&mut self, p: Precision, n: usize) {
        fn grow<T: Real>(v: &mut Vec<Complex<T>>, n: usize) {
            v.resize(n, Complex::zero());
        }
        match (p, &mut *self) {
            (Precision::Half, ComplexBuffer::C16(v)) => grow(v, n),
            (Precision::BFloat16, ComplexBuffer::CB16(v)) => grow(v, n),
            (Precision::Single, ComplexBuffer::C32(v)) => grow(v, n),
            (Precision::Double, ComplexBuffer::C64(v)) => grow(v, n),
            _ => *self = ComplexBuffer::zeros(p, n),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ComplexBuffer::C16(v) => v.len(),
            ComplexBuffer::CB16(v) => v.len(),
            ComplexBuffer::C32(v) => v.len(),
            ComplexBuffer::C64(v) => v.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn precision(&self) -> Precision {
        match self {
            ComplexBuffer::C16(_) => Precision::Half,
            ComplexBuffer::CB16(_) => Precision::BFloat16,
            ComplexBuffer::C32(_) => Precision::Single,
            ComplexBuffer::C64(_) => Precision::Double,
        }
    }

    #[inline]
    pub fn bytes(&self) -> usize {
        self.len() * self.precision().complex_bytes()
    }

    #[inline]
    pub fn get(&self, i: usize) -> Complex<f64> {
        match self {
            ComplexBuffer::C16(v) => v[i].cast(),
            ComplexBuffer::CB16(v) => v[i].cast(),
            ComplexBuffer::C32(v) => v[i].cast(),
            ComplexBuffer::C64(v) => v[i],
        }
    }

    pub fn to_c64_vec(&self) -> Vec<Complex<f64>> {
        match self {
            ComplexBuffer::C16(v) => v.iter().map(|z| z.cast()).collect(),
            ComplexBuffer::CB16(v) => v.iter().map(|z| z.cast()).collect(),
            ComplexBuffer::C32(v) => v.iter().map(|z| z.cast()).collect(),
            ComplexBuffer::C64(v) => v.clone(),
        }
    }

    /// The complex cast kernel; the `16-bit ↔ f32` pairs run the batched
    /// SIMD conversions on the interleaved storage viewed as a flat real
    /// slice (see [`RealBuffer::cast`]).
    pub fn cast(self, p: Precision) -> Self {
        use crate::complex::{as_flat, as_flat_mut};
        match (&self, p) {
            (ComplexBuffer::C16(v), Precision::Single) => {
                let mut out = vec![Complex::<f32>::zero(); v.len()];
                crate::simd::widen_f16_to_f32(as_flat(v), as_flat_mut(&mut out));
                return ComplexBuffer::C32(out);
            }
            (ComplexBuffer::CB16(v), Precision::Single) => {
                let mut out = vec![Complex::<f32>::zero(); v.len()];
                crate::simd::widen_bf16_to_f32(as_flat(v), as_flat_mut(&mut out));
                return ComplexBuffer::C32(out);
            }
            (ComplexBuffer::C32(v), Precision::Half) => {
                let mut out = vec![Complex::<f16>::zero(); v.len()];
                crate::simd::narrow_f32_to_f16(as_flat(v), as_flat_mut(&mut out));
                return ComplexBuffer::C16(out);
            }
            (ComplexBuffer::C32(v), Precision::BFloat16) => {
                let mut out = vec![Complex::<bf16>::zero(); v.len()];
                crate::simd::narrow_f32_to_bf16(as_flat(v), as_flat_mut(&mut out));
                return ComplexBuffer::CB16(out);
            }
            _ => {}
        }
        if self.precision() == p {
            return self;
        }
        with_real!(p, T => {
            let out: Vec<Complex<T>> = match &self {
                ComplexBuffer::C16(v) => v.iter().map(|z| z.cast()).collect(),
                ComplexBuffer::CB16(v) => v.iter().map(|z| z.cast()).collect(),
                ComplexBuffer::C32(v) => v.iter().map(|z| z.cast()).collect(),
                ComplexBuffer::C64(v) => v.iter().map(|z| z.cast()).collect(),
            };
            ComplexBuffer::from(out)
        })
    }

    pub fn as_c16(&self) -> Option<&[Complex<f16>]> {
        match self {
            ComplexBuffer::C16(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_cb16(&self) -> Option<&[Complex<bf16>]> {
        match self {
            ComplexBuffer::CB16(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_c32(&self) -> Option<&[Complex<f32>]> {
        match self {
            ComplexBuffer::C32(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_c64(&self) -> Option<&[Complex<f64>]> {
        match self {
            ComplexBuffer::C64(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_zeros_and_len() {
        let b = RealBuffer::zeros(Precision::Single, 7);
        assert_eq!(b.len(), 7);
        assert_eq!(b.precision(), Precision::Single);
        assert_eq!(b.bytes(), 28);
        assert!(!b.is_empty());
        assert_eq!(b.get(3), 0.0);
        let h = RealBuffer::zeros(Precision::Half, 5);
        assert_eq!(h.precision(), Precision::Half);
        assert_eq!(h.bytes(), 10);
        assert_eq!(h.get(0), 0.0);
    }

    #[test]
    fn real_cast_loses_then_keeps_bits() {
        // A double that is not representable in single.
        let x = 1.0 + 2f64.powi(-40);
        let b = RealBuffer::from_f64(Precision::Double, &[x]);
        let narrowed = b.clone().cast(Precision::Single);
        assert_ne!(narrowed.get(0), x);
        // Widening back does not recover the bits.
        let widened = narrowed.cast(Precision::Double);
        assert_eq!(widened.get(0), 1.0);
        // Same-precision cast is identity.
        assert_eq!(b.clone().cast(Precision::Double), b);
    }

    #[test]
    fn half_tier_casts() {
        // 1 + 2^-9 is representable in f16 (ε = 2^-10) but not in bf16
        // (ε = 2^-7) — the tiers are not ordered by accuracy.
        let x = 1.0 + 2f64.powi(-9);
        let b = RealBuffer::from_f64(Precision::Half, &[x]);
        assert_eq!(b.get(0), x);
        let bb = RealBuffer::from_f64(Precision::BFloat16, &[x]);
        assert_eq!(bb.get(0), 1.0);
        // Widening a 16-bit tier into f32/f64 is exact.
        let w = b.clone().cast(Precision::Single);
        assert_eq!(w.precision(), Precision::Single);
        assert_eq!(w.get(0), x);
        // f16 overflows where bf16 keeps the f32 range.
        let big = RealBuffer::from_f64(Precision::Double, &[1e6]);
        assert!(big.clone().cast(Precision::Half).get(0).is_infinite());
        assert!(big.cast(Precision::BFloat16).get(0).is_finite());
    }

    #[test]
    fn real_accumulate_mixed_precision() {
        let mut acc = RealBuffer::from_f64(Precision::Double, &[1.0, 2.0]);
        let other = RealBuffer::from_f64(Precision::Single, &[0.5, 0.25]);
        acc.accumulate(&other);
        assert_eq!(acc.to_f64_vec(), vec![1.5, 2.25]);
        // A half accumulator rounds after every add.
        let mut hacc = RealBuffer::from_f64(Precision::Half, &[1.0]);
        hacc.accumulate(&RealBuffer::from_f64(Precision::Double, &[2f64.powi(-12)]));
        assert_eq!(hacc.get(0), 1.0, "sub-ε increment must be swallowed");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accumulate_length_mismatch_panics() {
        let mut acc = RealBuffer::zeros(Precision::Double, 2);
        let other = RealBuffer::zeros(Precision::Double, 3);
        acc.accumulate(&other);
    }

    #[test]
    fn complex_roundtrip() {
        let data = vec![Complex::new(1.5, -2.5), Complex::new(0.0, 1.0)];
        let b = ComplexBuffer::from_c64(Precision::Double, &data);
        assert_eq!(b.to_c64_vec(), data);
        assert_eq!(b.bytes(), 32);
        let s = b.cast(Precision::Single);
        assert_eq!(s.precision(), Precision::Single);
        assert_eq!(s.bytes(), 16);
        // These values are exactly representable in f32.
        assert_eq!(s.to_c64_vec(), data);
        // ... and in both 16-bit tiers.
        let h = ComplexBuffer::from_c64(Precision::Half, &data);
        assert_eq!(h.bytes(), 8);
        assert_eq!(h.to_c64_vec(), data);
        let bb = ComplexBuffer::from_c64(Precision::BFloat16, &data);
        assert_eq!(bb.to_c64_vec(), data);
    }

    #[test]
    fn accessors_match_variant() {
        let b = ComplexBuffer::zeros(Precision::Single, 4);
        assert!(b.as_c32().is_some());
        assert!(b.as_c64().is_none());
        assert!(b.as_c16().is_none());
        let b = b.cast(Precision::Double);
        assert!(b.as_c64().is_some() && b.as_c32().is_none());
        let h = ComplexBuffer::zeros(Precision::Half, 2);
        assert!(h.as_c16().is_some() && h.as_cb16().is_none());
        let r = RealBuffer::zeros(Precision::BFloat16, 2);
        assert!(r.as_bf16().is_some() && r.as_f16().is_none());
    }

    #[test]
    fn reset_reuses_matching_storage() {
        let mut b = RealBuffer::from_f64(Precision::Single, &[1.0, 2.0, 3.0, 4.0]);
        let ptr_before = b.as_f32().unwrap().as_ptr();
        b.reset(Precision::Single, 3);
        assert_eq!(b.len(), 3);
        assert!(b.to_f64_vec().iter().all(|&x| x == 0.0), "reset must zero-fill");
        assert_eq!(b.as_f32().unwrap().as_ptr(), ptr_before, "same-variant reset keeps storage");
        // Variant switch replaces the allocation.
        b.reset(Precision::Half, 2);
        assert_eq!(b.precision(), Precision::Half);
        assert_eq!(b.len(), 2);
        let mut c = ComplexBuffer::from_c64(Precision::Double, &[Complex::new(1.0, -1.0)]);
        let cp = c.as_c64().unwrap().as_ptr();
        c.reset(Precision::Double, 1);
        assert_eq!(c.get(0), Complex::zero());
        assert_eq!(c.as_c64().unwrap().as_ptr(), cp);
        c.reset(Precision::BFloat16, 4);
        assert_eq!(c.precision(), Precision::BFloat16);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn widening_casts_are_exact_roundtrips() {
        for p in Precision::ALL {
            let src = RealBuffer::from_f64(p, &[0.3125, -7.75, 1.0e-2]);
            for target in Precision::ALL {
                if p.widens_exactly_to(target) {
                    let roundtrip = src.clone().cast(target).cast(p);
                    assert_eq!(roundtrip, src, "{p} → {target} → {p}");
                }
            }
        }
    }

    /// The SIMD-routed `16-bit ↔ f32` cast pairs must match the generic
    /// per-element `Real::from_f64` path bit for bit (odd length so the
    /// vector body and scalar tail are both exercised).
    #[test]
    fn simd_routed_casts_match_generic_path() {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x5eed);
        let xs: Vec<f32> = (0..1027).map(|_| rng.uniform(-70000.0, 70000.0) as f32).collect();

        let src = RealBuffer::F32(xs.clone());
        let h = src.clone().cast(Precision::Half);
        let b = src.clone().cast(Precision::BFloat16);
        for (i, &x) in xs.iter().enumerate() {
            assert!(h.as_f16().unwrap()[i].bit_eq(f16::from_f64(x as f64)));
            assert!(b.as_bf16().unwrap()[i].bit_eq(bf16::from_f64(x as f64)));
        }
        let wh = h.clone().cast(Precision::Single);
        let wb = b.clone().cast(Precision::Single);
        for i in 0..xs.len() {
            assert_eq!(wh.as_f32().unwrap()[i], h.as_f16().unwrap()[i].to_f64() as f32);
            assert_eq!(wb.as_f32().unwrap()[i], b.as_bf16().unwrap()[i].to_f64() as f32);
        }

        let zs: Vec<Complex<f32>> = xs.chunks_exact(2).map(|c| Complex::new(c[0], c[1])).collect();
        let csrc = ComplexBuffer::C32(zs.clone());
        let ch = csrc.clone().cast(Precision::Half);
        let cb = csrc.clone().cast(Precision::BFloat16);
        for (i, z) in zs.iter().enumerate() {
            let want: Complex<f16> = z.cast();
            let got = ch.as_c16().unwrap()[i];
            assert!(got.re.bit_eq(want.re) && got.im.bit_eq(want.im));
            let want: Complex<bf16> = z.cast();
            let got = cb.as_cb16().unwrap()[i];
            assert!(got.re.bit_eq(want.re) && got.im.bit_eq(want.im));
        }
        let cwh = ch.clone().cast(Precision::Single);
        for (i, z) in ch.as_c16().unwrap().iter().enumerate() {
            assert_eq!(cwh.as_c32().unwrap()[i], z.cast::<f32>());
        }
    }
}
