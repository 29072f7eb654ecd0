//! Small dense vector kernels shared across the workspace.
//!
//! These are the level-1 BLAS pieces the pipeline and the inverse-problem
//! layer need: dot products, norms, axpy, and the relative-ℓ2 error metric
//! that every experiment in the paper reports
//! (`‖δv‖/‖v‖`, Section 3.2.1).

use crate::complex::Complex;
use crate::fma_pass;
use crate::real::Real;
use crate::scalar::Scalar;

fma_pass! {
    /// Euclidean dot product `aᵀb` (no conjugation): one sequential
    /// `mul_add` chain, run as a [`fma_pass`] like [`dotc`] and [`axpy`] —
    /// a libm call per element otherwise.
    pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        a.iter().zip(b).fold(S::zero(), |acc, (&x, &y)| x.mul_add(y, acc))
    }
}

fma_pass! {
    /// Hermitian inner product `aᴴb` (conjugate-linear in `a`).
    pub fn dotc<S: Scalar>(a: &[S], b: &[S]) -> S {
        assert_eq!(a.len(), b.len(), "dotc length mismatch");
        a.iter().zip(b).fold(S::zero(), |acc, (&x, &y)| x.conj().mul_add(y, acc))
    }
}

/// Squared Euclidean norm `‖a‖²`.
pub fn norm_sqr<S: Scalar>(a: &[S]) -> S::Real {
    a.iter().fold(<S::Real as Real>::ZERO, |acc, &x| acc + x.abs_sqr())
}

/// Euclidean norm `‖a‖`.
pub fn nrm2<S: Scalar>(a: &[S]) -> S::Real {
    norm_sqr(a).sqrt()
}

fma_pass! {
    /// `y ← αx + y`.
    pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = alpha.mul_add(xi, *yi);
        }
    }
}

/// `y ← αy`.
pub fn scal<S: Scalar>(alpha: S, y: &mut [S]) {
    for yi in y.iter_mut() {
        *yi = alpha * *yi;
    }
}

/// Relative ℓ2 error `‖a − b‖ / ‖b‖` with `b` the reference.
/// Returns the absolute norm of `a − b` when `b` is exactly zero.
pub fn rel_l2_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rel_l2_error length mismatch");
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        num += d * d;
        den += y * y;
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

/// Relative ℓ2 error for complex data.
pub fn rel_l2_error_c(a: &[Complex<f64>], b: &[Complex<f64>]) -> f64 {
    assert_eq!(a.len(), b.len(), "rel_l2_error_c length mismatch");
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        num += (x - y).norm_sqr();
        den += y.norm_sqr();
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

/// Maximum absolute difference (ℓ∞ error).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_real() {
        assert_eq!(dot(&[1.0f64, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dotc_conjugates_left() {
        let a = [Complex::<f64>::new(0.0, 1.0)];
        let b = [Complex::<f64>::new(0.0, 1.0)];
        // conj(i)·i = -i·i = 1
        assert_eq!(dotc(&a, &b), Complex::one());
        // plain dot: i·i = -1
        assert_eq!(dot(&a, &b), -Complex::one());
    }

    #[test]
    fn norms() {
        assert_eq!(nrm2(&[3.0f64, 4.0]), 5.0);
        let v = [Complex::<f32>::new(3.0, 4.0)];
        assert_eq!(nrm2(&v), 5.0f32);
        assert_eq!(norm_sqr(&v), 25.0f32);
    }

    #[test]
    fn axpy_and_scal() {
        let x = [1.0f64, 2.0];
        let mut y = [10.0f64, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    #[test]
    fn relative_error_metric() {
        let b = [1.0f64, 0.0, 0.0];
        let a = [1.0 + 1e-8, 0.0, 0.0];
        let e = rel_l2_error(&a, &b);
        assert!((e - 1e-8).abs() < 1e-15);
        // Zero reference falls back to absolute.
        assert_eq!(rel_l2_error(&[0.5, 0.0], &[0.0, 0.0]), 0.5);
        // Identical vectors → zero error.
        assert_eq!(rel_l2_error(&b, &b), 0.0);
    }

    #[test]
    fn complex_relative_error() {
        let b = [Complex::new(1.0, 1.0)];
        let a = [Complex::new(1.0, 1.0 + 2e-7)];
        let e = rel_l2_error_c(&a, &b);
        assert!(e > 1e-7 && e < 2e-7);
    }

    #[test]
    fn linf() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[1.5, 4.0]), 1.0);
    }
}
