//! # fftmatvec-fft — plan-based FFT substrate
//!
//! The FFTMatvec algorithm needs batched 1-D FFTs of length `2·N_t` where
//! `N_t` is an application-chosen number of timesteps (e.g. 1000, so the
//! transform length 2000 = 2⁴·5³ is *not* a power of two). The paper uses
//! cuFFT/hipFFT; this crate is the from-scratch replacement:
//!
//! * [`FftPlan`] — Stockham-style iterative mixed-radix engine
//!   (the private `iterative` module) for sizes whose prime factors are ≤ 61, with
//!   radix-2/4 butterflies, consecutive radix-4 stages fused into
//!   radix-16 passes (one trip through memory for two stages, `f32` /
//!   `f64`), and table-driven odd radices; vector kernels for all of them
//!   at the AVX2 level, in `fftmatvec_numeric::simd`'s register
//!   vocabulary;
//!   Bluestein's chirp-z algorithm for anything with a larger prime
//!   factor. Per-stage twiddles are precomputed at plan time (the "setup
//!   phase" of the paper, always done in double precision by the caller),
//!   and execution is available both out-of-place and in place.
//! * [`cache`] — the process-wide plan cache: one shared plan per
//!   `(n, precision, kind)`, behind cheap [`cache::PlanHandle`] clones, so
//!   call sites never rebuild twiddle tables.
//! * [`RealFftPlan`] — real-to-complex forward / complex-to-real inverse
//!   transforms using the packed half-length complex trick. For an even
//!   length `n` the forward transform returns `n/2 + 1` complex bins —
//!   exactly why the paper's frequency-domain SBGEMV batch count is
//!   `N_t + 1` (Section 2.4).
//! * [`batch`] — contiguous batched execution drawing per-worker scratch
//!   from a `fftmatvec_numeric::workspace::WorkspacePool`, parallelized
//!   across the batch dimension on the rayon work-stealing pool, standing
//!   in for `cufftPlanMany`/`hipfftPlanMany`.
//! * [`par`] — the library's one parallel-for: a batch of chunks, one
//!   serial/parallel decision, per-worker state, and the lowest failing
//!   chunk's error. The batched drivers and `fftmatvec-core`'s column,
//!   time-step and rank loops all run through it.
//! * [`ndfft`] — separable N-dimensional transforms over nested cached
//!   1-D plans (outer `planWhole` / inner `planBlock` in the fastmat
//!   naming), transposing one axis at a time so every axis pass runs the
//!   contiguous batched driver: [`NdFft`] is the complex whole-grid
//!   transform, [`RealNdFft`] the real-input, head-pruned one the
//!   multi-level Toeplitz operators run (R2C innermost axis, each axis
//!   transformed only over rows that can be non-zero, spectrum left in
//!   the rotated layout of the last pass).
//! * [`dft`] — a naive O(n²) reference DFT used by tests and by the
//!   Bluestein implementation's own validation.
//! * [`recursive`] — the seed's recursive engine, kept as a differential
//!   test oracle and the benchmark baseline the iterative engine is gated
//!   against in CI.
//!
//! Conventions: forward transform uses `e^{-2πi jk/n}` and is unscaled;
//! the inverse uses `e^{+2πi jk/n}` and scales by `1/n`, so
//! `inverse(forward(x)) == x` up to roundoff. Everything is generic over
//! [`fftmatvec_numeric::Real`] — the four tiers `f64`, `f32`, `f16` and
//! `bf16` — so the mixed-precision pipeline can run each phase in its
//! configured precision.

pub mod batch;
pub mod bluestein;
pub mod cache;
pub mod dft;
mod iterative;
pub mod ndfft;
mod padded;
pub mod par;
pub mod plan;
pub mod real;
pub mod recursive;
mod simd;

pub use batch::{BatchedFft, BatchedRealFft};
pub use cache::{PlanHandle, RealPlanHandle};
pub use ndfft::{NdFft, RealNdFft};
pub use plan::{FftDirection, FftPlan};
pub use real::RealFftPlan;
pub use recursive::RecursiveFftPlan;

/// Theoretical FFT relative error growth factor `log2(n)` used by the
/// paper's error bound (Eq. 6, after [Van Loan 1992]).
pub fn fft_error_growth(n: usize) -> f64 {
    if n <= 1 {
        1.0
    } else {
        (n as f64).log2()
    }
}

/// Guards the process-global SIMD dispatch level in this crate's unit
/// tests: the tests that force a level hold it, and so do the tests that
/// read the level to decide what must run.
#[cfg(test)]
pub(crate) static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_growth_monotone() {
        assert_eq!(fft_error_growth(1), 1.0);
        assert_eq!(fft_error_growth(2), 1.0);
        assert!(fft_error_growth(2048) > fft_error_growth(1024));
        assert!((fft_error_growth(1 << 10) - 10.0).abs() < 1e-12);
    }
}
