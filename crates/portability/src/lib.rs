//! # fftmatvec-portability — hipify on-the-fly
//!
//! The paper's performance-portability contribution (Section 3.1): keep a
//! *single* CUDA source tree and translate it to HIP at compile time, so
//! NVIDIA builds are untouched and AMD builds are generated — no dual
//! source maintenance, no framework rewrite. This crate rebuilds that
//! workflow:
//!
//! * [`hipify`] — a `hipify-perl`-style translator: an ordered API mapping
//!   table (CUDA runtime, cuBLAS, cuFFT, cuTENSOR, NCCL, kernel-launch
//!   syntax, headers) applied by an identifier-aware scanner. Unmapped
//!   `cu*` APIs produce the "Not Supported" diagnostics the paper
//!   describes.
//! * [`pipeline`] — the on-the-fly build step: a registry of in-repo
//!   "CUDA" kernel sources (the actual FFTMatvec device kernels: pad,
//!   unpad, fused cast, SBGEMV launcher, batched FFT setup, NCCL
//!   reduction, and the cuTENSOR complex permutation that hipTensor does
//!   not support), per-source staleness hashing so edits re-trigger
//!   hipification, and a custom-kernel fallback registry that plugs the
//!   cuTENSOR gap exactly as Section 3.1 does. [`GpuVendor`] selects the
//!   translation path: CUDA passes through, HIP is hipified.
//! * [`report`] — per-library translation summaries.
//!
//! The translated sources are validated, not executed: no GPU runtime
//! exists here, and the workspace's device backends run on the host.

pub mod hipify;
pub mod kernels_cuda;
pub mod pipeline;
pub mod report;

pub use hipify::{hipify_source, HipifyResult, UnsupportedApi};
pub use pipeline::{BuildError, GpuVendor, HipifyPipeline};
pub use report::{report_for, TranslationReport};
