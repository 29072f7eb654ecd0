//! # fftmatvec — umbrella crate
//!
//! A from-scratch Rust reproduction of *"Mixed-Precision Performance
//! Portability of FFT-Based GPU-Accelerated Algorithms for Block-Triangular
//! Toeplitz Matrices"* (Venkat, Świrydowicz, Wolfe, Ghattas — SC Workshops
//! '25).
//!
//! This crate re-exports the whole workspace so applications can depend on
//! a single crate:
//!
//! * [`numeric`] — scalars, complex numbers, dynamic-precision buffers.
//! * [`fft`] — plan-based mixed-radix FFT with real transforms and batching.
//! * [`gpu`] — simulated AMD Instinct devices and the kernel cost model.
//! * [`blas`] — strided batched GEMV kernels (baseline + optimized).
//! * [`comm`] — 2-D process grids, collectives, and the comm cost model.
//! * [`core`] — the FFTMatvec pipeline, mixed-precision framework, error
//!   analysis, Pareto front, and the distributed matvec.
//! * [`toeplitz`] — multi-level Toeplitz operators (`TwoLevelToeplitz`,
//!   `NdCirculantEmbedding`) via circulant embedding, on real N-d
//!   transforms that skip the embedding's zero rows; nested plans share
//!   the process-wide FFT plan cache in the `planWhole`/`planBlock` style.
//! * [`lti`] — linear autonomous dynamical systems and Bayesian inversion.
//! * [`portability`] — the hipify-on-the-fly translation pipeline.
//! * [`service`] — operator-as-a-service: a persistent registry plus an
//!   async batching queue with deadlines and admission control.
//!
//! ## Quickstart
//!
//! Every matvec realization implements the
//! [`LinearOperator`](core::LinearOperator) trait; pipelines are built
//! with the fluent builder and report failures as typed errors
//! ([`OpError`](core::OpError) / [`ConfigError`](core::ConfigError))
//! instead of panicking:
//!
//! ```
//! use fftmatvec::core::{BlockToeplitzOperator, FftMatvec, LinearOperator, PrecisionConfig};
//! use fftmatvec::numeric::SplitMix64;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small block-triangular Toeplitz operator: Nt=8 blocks of 3x16.
//! let (nd, nm, nt) = (3, 16, 8);
//! let mut rng = SplitMix64::new(1);
//! let mut col = vec![0.0; nt * nd * nm];
//! rng.fill_uniform(&mut col, -1.0, 1.0);
//! let op = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col)?;
//!
//! // Build the pipeline and apply F in full double precision.
//! let mv = FftMatvec::builder(op).precision(PrecisionConfig::all_double()).build()?;
//! let m = vec![1.0; nm * nt];
//! let d = mv.apply_forward(&m)?;
//! assert_eq!(d.len(), nd * nt);
//!
//! // The zero-allocation hot path writes into a reused buffer.
//! let mut out = vec![0.0; nd * nt];
//! mv.apply_forward_into(&m, &mut out)?;
//! assert_eq!(out, d);
//!
//! // Shape mistakes come back as typed errors, not panics.
//! assert!(mv.apply_forward(&m[1..]).is_err());
//! # Ok(())
//! # }
//! ```
//!
//! Swapping realizations is a type change, not a rewrite — the direct
//! `O(N_t²)` oracle exposes the same trait surface:
//!
//! ```
//! use fftmatvec::core::{BlockToeplitzOperator, DirectMatvec, LinearOperator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let op = BlockToeplitzOperator::from_first_block_column(1, 2, 2, &[1.0, 2.0, 3.0, 4.0])?;
//! let direct = DirectMatvec::new(&op);
//! let any: &dyn LinearOperator = &direct;
//! assert_eq!(any.shape().rows, 2);
//! // d_0 = F_1·m_0 = [1,2]·[1,0]; d_1 = F_2·m_0 + F_1·m_1 = 3 + 2.
//! assert_eq!(any.apply_forward(&[1.0, 0.0, 0.0, 1.0])?, vec![1.0, 5.0]);
//! # Ok(())
//! # }
//! ```

pub use fftmatvec_backend as backend;
pub use fftmatvec_blas as blas;
pub use fftmatvec_comm as comm;
pub use fftmatvec_core as core;
pub use fftmatvec_fft as fft;
pub use fftmatvec_gpu as gpu;
pub use fftmatvec_lti as lti;
pub use fftmatvec_numeric as numeric;
pub use fftmatvec_portability as portability;
pub use fftmatvec_service as service;
pub use fftmatvec_toeplitz as toeplitz;
