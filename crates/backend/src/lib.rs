//! # fftmatvec-backend — the device-dispatch seam
//!
//! The paper's claim is *performance portability*: the same FFT-based
//! block-Toeplitz algorithms running across CPU and GPU device tiers.
//! This crate is the seam that makes the claim structural instead of
//! aspirational: one object-safe [`DeviceBackend`] trait exposing exactly
//! the five primitives every matvec path in the workspace actually uses —
//!
//! 1. **transfer accounting** — `record_upload` / `record_download` mark
//!    the pad / unpad edges where a host↔device crossing would happen
//!    ([`TransferStats`]);
//! 2. **batched real FFT execution** — [`BatchFft`] handles returned by
//!    [`DeviceBackend::real_fft`], one per precision tier;
//! 3. **pointwise complex multiply** — the degenerate 1×1 frequency-domain
//!    product the multi-level circulant pipelines run instead of SBGEMV
//!    (on the CPU, `fftmatvec_numeric::simd::pointwise_mul_assign`, a
//!    vector kernel per tier);
//! 4. **batched cast** — the phase-boundary tier changes, one correct
//!    rounding per element, never two (on the CPU,
//!    `RealBuffer::cast_into` / `ComplexBuffer::cast_into`, with vector
//!    `16-bit ↔ f32` conversions);
//! 5. **tree-reduce** — the bit-deterministic partial-sum reduction the
//!    distributed matvec performs in its output precision.
//!
//! Two backends ship, both executing on the host:
//!
//! * [`CpuPool`] — the rayon-pool + SIMD kernels the workspace has always
//!   run on, **bit-identical** to the direct call path and the default;
//! * [`SimulatedDevice`] — a [`CpuPool`] plus a modeled device clock:
//!   arithmetic and the transfer ledger are the pool's (same bits), and
//!   the pipeline reports each completed apply through
//!   [`DeviceBackend::record_apply`] with the applied kernel's cost
//!   model, which the device evaluates on its `DeviceSpec` and adds to a
//!   [`fftmatvec_gpu::PhaseTimes`] ledger — one booking per apply, none
//!   per primitive; transfers are additionally charged against a
//!   host-link bandwidth model.
//!
//! Selection precedence is **builder > environment > default**: an
//! explicit `.backend(..)` wins, otherwise the `FFTMATVEC_BACKEND`
//! environment variable (mirroring `FFTMATVEC_SIMD`; read per build, not
//! cached) is consulted, otherwise [`BackendKind::Cpu`]. An unknown name
//! is a typed [`BackendError`], never a panic; [`create`] then builds the
//! resolved kind and cannot fail.

pub mod cpu;
pub mod error;
pub mod kind;
pub mod simulated;
pub mod traits;

pub use cpu::CpuPool;
pub use error::BackendError;
pub use kind::{create, BackendKind, BACKEND_ENV};
pub use simulated::SimulatedDevice;
pub use traits::{BatchFft, DeviceBackend, TransferStats};
