//! A `#[repr(C)]` complex type generic over [`Real`].
//!
//! The frequency-domain half of the FFTMatvec pipeline (phases 2–4) works
//! entirely on complex data; rocBLAS/cuBLAS call these the `c`/`z`
//! datatypes. The layout is the standard interleaved (re, im) pair so a
//! `&[Complex<T>]` can be reinterpreted as `&[T]` of twice the length when
//! byte counts matter for the bandwidth model.

use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::real::Real;

/// Interleaved complex number. Field order matches C/CUDA `float2`/`double2`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

impl<T: Real> Complex<T> {
    /// The complex zero.
    pub const fn zero() -> Self
    where
        T: Real,
    {
        Complex { re: T::ZERO, im: T::ZERO }
    }

    /// The complex one.
    pub const fn one() -> Self {
        Complex { re: T::ONE, im: T::ZERO }
    }

    /// The imaginary unit.
    pub const fn i() -> Self {
        Complex { re: T::ZERO, im: T::ONE }
    }

    #[inline(always)]
    pub fn new(re: T, im: T) -> Self {
        Complex { re, im }
    }

    /// Embed a real number.
    #[inline(always)]
    pub fn from_real(re: T) -> Self {
        Complex { re, im: T::ZERO }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Squared magnitude `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.re.mul_add(self.re, self.im * self.im)
    }

    /// Magnitude.
    #[inline(always)]
    pub fn abs(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, k: T) -> Self {
        Complex { re: self.re * k, im: self.im * k }
    }

    /// `e^{iθ}` — the twiddle-factor primitive.
    #[inline(always)]
    pub fn expi(theta: T) -> Self {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Fused multiply-add `self * a + b` using real FMAs where profitable.
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Complex {
            re: self.re.mul_add(a.re, (-self.im).mul_add(a.im, b.re)),
            im: self.re.mul_add(a.im, self.im.mul_add(a.re, b.im)),
        }
    }

    /// Multiplicative inverse. Not guarded against zero; callers in the FFT
    /// only invert unit-magnitude twiddles.
    #[inline(always)]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr().recip();
        Complex { re: self.re * d, im: -self.im * d }
    }

    /// Cast between precisions through `f64`.
    #[inline(always)]
    pub fn cast<U: Real>(self) -> Complex<U> {
        Complex { re: U::from_f64(self.re.to_f64()), im: U::from_f64(self.im.to_f64()) }
    }

    /// Both components finite?
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

/// View interleaved complex storage as a flat real slice of twice the
/// length (the `#[repr(C)]` layout guarantee; see the layout test).
#[inline]
pub fn as_flat<T: Real>(v: &[Complex<T>]) -> &[T] {
    // SAFETY: Complex<T> is #[repr(C)] { re: T, im: T } with no padding,
    // so n complex elements are exactly 2n properly-initialized Ts.
    unsafe { core::slice::from_raw_parts(v.as_ptr() as *const T, 2 * v.len()) }
}

/// Mutable flat real view of interleaved complex storage.
#[inline]
pub fn as_flat_mut<T: Real>(v: &mut [Complex<T>]) -> &mut [T] {
    // SAFETY: as above; the borrow is exclusive and T has no invalid
    // bit patterns that writing component-wise could produce.
    unsafe { core::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut T, 2 * v.len()) }
}

impl<T: Real> Add for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Complex {
            re: self.re.mul_add(rhs.re, -(self.im * rhs.im)),
            im: self.re.mul_add(rhs.im, self.im * rhs.re),
        }
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Self;
    // Multiply-by-reciprocal is the intended complex division algorithm.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Complex { re: -self.re, im: -self.im }
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Real> SubAssign for Complex<T> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Real> MulAssign for Complex<T> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Real> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: Real> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type C = Complex<f64>;

    fn close(a: C, b: C, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn field_axioms() {
        let a = C::new(1.5, -2.0);
        let b = C::new(-0.25, 3.0);
        let c = C::new(4.0, 0.5);
        assert!(close(a + b, b + a, 1e-15));
        assert!(close(a * b, b * a, 1e-15));
        assert!(close(a * (b + c), a * b + a * c, 1e-12));
        assert!(close(a + C::zero(), a, 0.0));
        assert!(close(a * C::one(), a, 0.0));
        assert!(close(a * a.recip(), C::one(), 1e-14));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(C::i() * C::i(), -C::one(), 1e-16));
    }

    #[test]
    fn conjugation() {
        let a = C::new(3.0, 4.0);
        assert_eq!(a.conj().im, -4.0);
        assert!((a * a.conj()).re - 25.0 < 1e-12);
        assert!(((a * a.conj()).im).abs() < 1e-12);
        assert_eq!(a.abs(), 5.0);
    }

    #[test]
    fn expi_is_unit_circle() {
        for k in 0..16 {
            let theta = 2.0 * core::f64::consts::PI * (k as f64) / 16.0;
            let w = C::expi(theta);
            assert!((w.abs() - 1.0).abs() < 1e-14);
        }
        // e^{iπ} = -1
        assert!(close(C::expi(core::f64::consts::PI), -C::one(), 1e-15));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = C::new(1.0, 2.0);
        let b = C::new(3.0, -1.0);
        let c = C::new(-2.0, 0.5);
        assert!(close(a.mul_add(b, c), a * b + c, 1e-13));
    }

    #[test]
    fn division() {
        let a = C::new(2.0, 7.0);
        let b = C::new(-3.0, 0.25);
        assert!(close(a / b * b, a, 1e-12));
    }

    #[test]
    fn precision_cast_roundtrip_f32_values() {
        let a = Complex::<f32>::new(1.5, -0.25); // exactly representable
        let wide: Complex<f64> = a.cast();
        let narrow: Complex<f32> = wide.cast();
        assert_eq!(a, narrow);
    }

    #[test]
    fn layout_is_interleaved() {
        assert_eq!(core::mem::size_of::<Complex<f32>>(), 8);
        assert_eq!(core::mem::size_of::<Complex<f64>>(), 16);
        let v = [C::new(1.0, 2.0), C::new(3.0, 4.0)];
        let flat: &[f64] = unsafe { core::slice::from_raw_parts(v.as_ptr() as *const f64, 4) };
        assert_eq!(flat, &[1.0, 2.0, 3.0, 4.0]);
    }
}
