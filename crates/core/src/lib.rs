//! # fftmatvec-core — the FFTMatvec algorithm
//!
//! The paper's primary contribution: FFT-based matrix-vector products with
//! block lower-triangular Toeplitz matrices, with a dynamic mixed-precision
//! framework over the five computational phases (Section 2.4):
//!
//! 1. broadcast + zero-pad the input vector,
//! 2. batched (real-to-complex) FFT,
//! 3. block-diagonal matvec in Fourier space — a strided batched GEMV over
//!    `N_t + 1` frequency matrices of size `N_d × N_m`,
//! 4. batched (complex-to-real) inverse FFT,
//! 5. unpad + reduce.
//!
//! Each phase computes in one of four tiers — `f16`, `bf16`, single or
//! double — per a runtime [`PrecisionConfig`] (4⁵ = 1024
//! configurations); casts are fused into the adjacent
//! memory operations, and memory operations run in the lowest precision of
//! their neighbouring phases (Section 3.2). The adjoint matvec `F*` uses
//! the conjugate-transpose GEMV with input/output roles switched.
//!
//! Numerical results are real CPU arithmetic; simulated GPU timings come
//! from `fftmatvec-gpu` profiles built by [`timing`]. [`distributed`] runs
//! the algorithm over a 2-D process grid with real per-rank data and the
//! `fftmatvec-comm` cost model. [`error_analysis`] implements the paper's
//! first-order bound (Eq. 6); [`pareto`] the Pareto-front configuration
//! selection.
//!
//! ## Public API
//!
//! All three matvec realizations — [`FftMatvec`], [`DirectMatvec`], and
//! [`DistributedFftMatvec`] — implement the [`LinearOperator`] trait
//! ([`linop`]): `shape()` plus zero-allocation `apply_forward_into` /
//! `apply_adjoint_into` hot paths, with allocating `apply_forward` /
//! `apply_adjoint` and the flat-strided batched `apply_many_into`
//! provided on top. Construction is builder-based
//! ([`FftMatvec::builder`]), and all construction/apply failures are
//! typed ([`ConfigError`] / [`OpError`]) — no panics on the public
//! paths.
//!
//! ## One spectral pipeline
//!
//! [`spectral`] is the single implementation of the tiered five-phase
//! skeleton: [`TieredPipeline`] owns device resolution, the per-tier
//! engine bank, pooled workspaces ([`workspace`], also used by
//! [`distributed`]), configuration swaps, budget resolution, batched
//! applies and diagnostics; a [`SpectralKernel`] supplies the embedding,
//! the transform engines and the symbol-apply step. [`pipeline`] is the
//! block-triangular instantiation (`FftMatvec`, SBGEMV kernel);
//! `fftmatvec-toeplitz` instantiates it for multi-level Toeplitz
//! operators (pointwise kernel).

pub mod autotune;
pub mod direct;
pub mod distributed;
pub mod error_analysis;
pub mod layout;
pub mod linop;
pub mod operator;
pub mod pareto;
pub mod pipeline;
pub mod precision;
pub mod spectral;
pub mod timing;
/// The pooled per-apply workspaces, from `fftmatvec-numeric` (the FFT
/// drivers pool their scratch in the same [`workspace::WorkspacePool`]).
pub use fftmatvec_numeric::workspace;

/// The cost-model substrate a [`SpectralKernel`]'s `modeled_phases` is
/// written against (`DeviceSpec`, `KernelProfile`, `PhaseTimes`).
pub use fftmatvec_gpu as gpu;

pub use autotune::{AutotuneChoice, PhaseWeights, TierCalibration};
pub use direct::DirectMatvec;
pub use distributed::DistributedFftMatvec;
pub use error_analysis::{BoundParams, ErrorBound};
/// The execution backend every builder's `.backend(..)` takes, from
/// `fftmatvec-backend`: `Cpu` (the default) or `Simulated` (the same
/// bits plus modeled device timings).
pub use fftmatvec_backend::BackendKind;
pub use linop::{
    check_apply, check_batch, ConfigError, ConfigurableOperator, LinearOperator, OpDirection,
    OpError, OpShape,
};
pub use operator::BlockToeplitzOperator;
pub use pareto::{pareto_front, ParetoPoint};
pub use pipeline::{FftMatvec, FftMatvecBuilder};
pub use precision::{MatvecPhase, PrecisionConfig};
pub use spectral::{BuildOptions, SpectralKernel, TieredPipeline};
pub use workspace::{workspace_retention_cap, Workspace};
