//! # fftmatvec-gpu — the simulated-GPU substrate
//!
//! The paper's evaluation hardware (AMD Instinct MI250X/MI300X/MI355X) is
//! replaced by an analytical performance model, per the reproduction's
//! substitution rules. The model is deliberately the same one the paper
//! itself uses to *explain* its results: FFTMatvec is memory-bound in every
//! phase, so a kernel's time is
//!
//! ```text
//! t = launch_latency + max(bytes_moved / (peak_bw · efficiency),
//!                          flops / peak_flops)
//! ```
//!
//! where `efficiency` is the achieved fraction of peak HBM bandwidth. The
//! efficiency model captures exactly the effects Figure 1 and Section 3.1.1
//! identify:
//!
//! * **work-per-gridblock saturation** — a gridblock computing a single
//!   short dot product (the rocBLAS transpose SBGEMV with `m ≪ n`) cannot
//!   amortize launch/scheduling overhead, so achieved bandwidth collapses;
//! * **occupancy** — grids with fewer blocks than the CU count leave
//!   compute units idle;
//! * **per-device tuning caps** — rocBLAS kernels reach ~70% of peak on
//!   CDNA2/CDNA3 but only ~35% on the newer CDNA4 (MI355X), pending kernel
//!   parameter retuning (Section 4.1.2).
//!
//! Numerical results never come from this crate — arithmetic runs for real
//! on the CPU; only *times* are modeled.
//!
//! This crate is the cost-model *substrate*: device specs, the phase
//! clock, and every launch profile that needs no BLAS type
//! ([`KernelProfile::streaming`], [`KernelProfile::fft`],
//! [`KernelProfile::real_fft`], the one [`kernel::FFT_PASSES`]); the GEMV
//! profile is `fftmatvec_blas::kernel_profile`. What one *apply* costs is
//! assembled once per kernel family on top of it —
//! `fftmatvec_core::timing::simulate_phases` for the block-triangular
//! matvec, the pointwise kernel's `modeled_phases` for multi-level
//! Toeplitz — and that same assembly is what the figure binaries print
//! and what `fftmatvec_backend::SimulatedDevice` books, once per apply,
//! when an operator runs on it (`.backend(..)` or
//! `FFTMATVEC_BACKEND=simulated`).

pub mod clock;
pub mod device;
pub mod kernel;

pub use clock::{Phase, PhaseTimes};
pub use device::{CdnaGeneration, DeviceSpec};
pub use kernel::{dtype_for, KernelClass, KernelProfile};
