//! Foundational numerics for the `fftmatvec` workspace.
//!
//! This crate provides the scalar abstractions everything else is built on:
//!
//! * [`Real`] — a trait abstracting over `f64`/`f32` and the
//!   software-emulated 16-bit tiers [`struct@f16`]/[`struct@bf16`] ([`half`]), so that
//!   the FFT, BLAS, and pipeline kernels are written once and
//!   instantiated per precision, mirroring the templated kernels of the
//!   paper's CUDA/HIP source.
//! * [`Complex`] — a `#[repr(C)]` complex number generic over [`Real`].
//! * [`Scalar`] — unifies real and complex element types for the BLAS
//!   kernels (rocBLAS exposes `s`/`d`/`c`/`z` variants; we expose one
//!   generic kernel over `Scalar`).
//! * [`Precision`] / [`DType`] — runtime tags for the dynamic
//!   mixed-precision framework (Section 3.2 of the paper).
//! * [`RealBuffer`] / [`ComplexBuffer`] — dynamically typed vectors that
//!   hold data in either precision and implement the *cast kernels* that
//!   the mixed-precision pipeline fuses with neighbouring memory ops.
//! * [`rng`] — deterministic RNG, including the paper's mantissa-stuffing
//!   trick (Section 4.2.1) that guarantees double→single casts lose bits.
//! * [`workspace`] — the one pool of per-apply buffers: operator
//!   workspaces and FFT scratch alike are checked out of a
//!   [`workspace::WorkspacePool`].

pub mod buffer;
pub mod complex;
pub mod dtype;
pub mod half;
pub mod ndindex;
pub mod precision;
pub mod real;
pub mod rng;
pub mod scalar;
pub mod simd;
pub mod vecmath;
pub mod workspace;

pub use buffer::{ComplexBuffer, RealBuffer};
pub use complex::Complex;
pub use dtype::DType;
pub use half::{bf16, f16};
pub use precision::Precision;
pub use real::Real;
pub use rng::SplitMix64;
pub use scalar::Scalar;
pub use simd::SimdLevel;

/// Complex number over `f32` (the `c` datatype in BLAS naming).
pub type C32 = Complex<f32>;
/// Complex number over `f64` (the `z` datatype in BLAS naming).
pub type C64 = Complex<f64>;
/// Complex number over software-emulated IEEE binary16.
pub type C16 = Complex<f16>;
/// Complex number over software-emulated bfloat16.
pub type CB16 = Complex<bf16>;
