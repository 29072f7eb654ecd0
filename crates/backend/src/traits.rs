//! The [`DeviceBackend`] and [`BatchFft`] traits plus the transfer
//! accounting type.
//!
//! Both traits are object-safe: the pipeline crates hold
//! `Arc<dyn DeviceBackend>` / `Arc<dyn BatchFft>` and never name a
//! concrete backend. Buffers are the workspace's tier-tagged
//! [`RealBuffer`]/[`ComplexBuffer`] enums — a backend that keeps device
//! memory would mirror them into device allocations behind the same
//! handle types; the shipping backends execute host-side, so the
//! "device buffer" *is* the host buffer and a host↔device crossing is
//! accounting only (the pipeline's fused pad and unpad casts are the
//! copies).

use std::fmt::Debug;
use std::sync::Arc;

use fftmatvec_fft::RealPlanHandle;
use fftmatvec_gpu::{DeviceSpec, PhaseTimes};
use fftmatvec_numeric::{ComplexBuffer, Precision, RealBuffer};

use crate::error::BackendError;
use crate::kind::BackendKind;

/// Explicit host↔device transfer accounting.
///
/// `uploads`/`downloads` count *logical* transfer events (one per pipeline
/// edge crossing), `bytes_up`/`bytes_down` the payload they moved. The CPU
/// backend keeps the ledger at zero cost (relaxed atomics); the simulated
/// backend additionally charges modeled host-link time to `Phase::Comm`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Host→device transfer events.
    pub uploads: u64,
    /// Device→host transfer events.
    pub downloads: u64,
    /// Bytes moved host→device.
    pub bytes_up: u64,
    /// Bytes moved device→host.
    pub bytes_down: u64,
}

impl TransferStats {
    /// Total bytes crossing the link in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }
}

/// A planned batched real-to-complex FFT on one backend, pinned to one
/// precision tier and one transform length.
///
/// Handles are created by [`DeviceBackend::real_fft`] and own their
/// scratch (plans themselves are shared through the process-wide plan
/// cache, so same-length handles alias the same twiddle tables). The
/// forward transform maps `batch` contiguous length-`n` real series to
/// `batch` packed spectra of `n/2 + 1` bins; the inverse is its scaled
/// adjoint.
pub trait BatchFft: Send + Sync + Debug {
    /// The precision tier this handle was planned for.
    fn tier(&self) -> Precision;

    /// Transform length `n` (the padded series length `2·N_t`).
    fn transform_len(&self) -> usize;

    /// Packed spectrum bins per transform: `n/2 + 1`.
    fn spectrum_len(&self) -> usize {
        self.transform_len() / 2 + 1
    }

    /// Batched R2C forward. `input.len()` must be a multiple of
    /// [`Self::transform_len`]; `output` must hold `batch ·
    /// spectrum_len()` bins in the handle's tier.
    fn forward(&self, input: &RealBuffer, output: &mut ComplexBuffer) -> Result<(), BackendError>;

    /// Batched C2R inverse (scaled by `1/n`), the adjoint layout of
    /// [`Self::forward`].
    fn inverse(
        &self,
        spectrum: &ComplexBuffer,
        output: &mut RealBuffer,
    ) -> Result<(), BackendError>;

    /// Batched R2C forward of `n_series` zero-padded series read straight
    /// from a time-outer/series-inner `f64` matrix: sample `t < n/2` of
    /// series `s` is `input[t·n_series + s]`, rounded through tier `pad`
    /// into the handle's tier; samples `n/2..n` are the circulant
    /// embedding's zeros. `output` must hold `n_series · spectrum_len()`
    /// bins in the handle's tier. On bits this is the pad kernel into
    /// `pad`, [`DeviceBackend::cast_real`] into the handle's tier and
    /// [`Self::forward`] — with no padded buffer, no cast buffer, and no
    /// zero stored or loaded. One column of [`Self::forward_padded_many`].
    fn forward_padded(
        &self,
        input: &[f64],
        n_series: usize,
        pad: Precision,
        output: &mut ComplexBuffer,
    ) -> Result<(), BackendError> {
        self.forward_padded_many(input, n_series, 1, pad, output)
    }

    /// [`Self::forward_padded`] of `cols` columns through one operator:
    /// `input` holds `cols` TOSI matrices of `n_series` series back to
    /// back, and the spectra of column `c` are series `c·n_series..` of
    /// `output`. Every series has the bits of its own transform; the
    /// columns only share the call (and, on the CPU, SIMD lanes).
    fn forward_padded_many(
        &self,
        input: &[f64],
        n_series: usize,
        cols: usize,
        pad: Precision,
        output: &mut ComplexBuffer,
    ) -> Result<(), BackendError>;

    /// Batched C2R inverse (scaled by `1/n`) that keeps samples `t < n/2`
    /// of each series, routes them through tier `unpad` and stores them in
    /// the time-outer/series-inner `f64` matrix `output[t·batch + s]`. On
    /// bits this is [`Self::inverse`] followed by the unpad kernel — with
    /// no time buffer, no separate scaling pass, and the discarded half of
    /// each series never computed. One column of
    /// [`Self::inverse_unpadded_many`].
    fn inverse_unpadded(
        &self,
        spectrum: &ComplexBuffer,
        unpad: Precision,
        output: &mut [f64],
    ) -> Result<(), BackendError> {
        self.inverse_unpadded_many(spectrum, 1, unpad, output)
    }

    /// [`Self::inverse_unpadded`] of `cols` columns, the layout of
    /// [`Self::forward_padded_many`] mirrored: column `c`'s spectra are
    /// the `c`-th of `cols` equal runs of `spectrum`, and its TOSI matrix
    /// the `c`-th of `cols` equal runs of `output`.
    fn inverse_unpadded_many(
        &self,
        spectrum: &ComplexBuffer,
        cols: usize,
        unpad: Precision,
        output: &mut [f64],
    ) -> Result<(), BackendError>;

    /// The shared `f64` plan handle, when this handle is the `f64` tier —
    /// callers use pointer equality to verify plan-cache sharing.
    fn plan_handle_f64(&self) -> Option<RealPlanHandle<f64>>;
}

/// One device backend: the five primitives every matvec path uses.
///
/// Implementations must be `Send + Sync` — one backend instance is shared
/// by every workspace of an operator and by the batched `apply_many`
/// rayon tasks.
pub trait DeviceBackend: Send + Sync + Debug {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Human-readable name for reports (device model for simulated
    /// backends).
    fn name(&self) -> &'static str;

    /// Account a host→device crossing of `bytes` that the pipeline
    /// performed in place (the CPU path's "upload" is the fused pad cast —
    /// no copy happens, but the edge is still a transfer on a real
    /// device).
    fn record_upload(&self, bytes: usize);

    /// Account a device→host crossing of `bytes` (the unpad edge).
    fn record_download(&self, bytes: usize);

    /// Account one completed pipeline apply. `modeled` is the applied
    /// kernel's cost model — its per-phase device time on a given
    /// [`DeviceSpec`] — and is evaluated only by backends that keep a
    /// modeled clock ([`crate::SimulatedDevice`]); backends that execute
    /// for real ignore it.
    fn record_apply(&self, _modeled: &dyn Fn(&DeviceSpec) -> PhaseTimes) {}

    /// Snapshot of the transfer ledger.
    fn transfers(&self) -> TransferStats;

    /// Reset the transfer ledger (and modeled times, where kept).
    fn reset_transfers(&self);

    /// Plan a batched real FFT of length `n` in tier `p`.
    fn real_fft(&self, p: Precision, n: usize) -> Result<Arc<dyn BatchFft>, BackendError>;

    /// Pointwise frequency-domain symbol multiply `io ⊙= sym` (or
    /// `⊙= conj(sym)` for the adjoint). Tiers of `io` and `sym` must
    /// match.
    fn pointwise_multiply(
        &self,
        io: &mut ComplexBuffer,
        sym: &ComplexBuffer,
        conj: bool,
    ) -> Result<(), BackendError>;

    /// Batched phase-boundary cast of a real buffer into tier `p`: the
    /// values of `Tout::from_f64(x.to_f64())` per element (exact
    /// widening, a single correct rounding on narrowing). Resets `dst`
    /// to `(p, src.len())`.
    fn cast_real(
        &self,
        src: &RealBuffer,
        p: Precision,
        dst: &mut RealBuffer,
    ) -> Result<(), BackendError>;

    /// Batched phase-boundary cast of a complex buffer into tier `p`,
    /// same rounding contract as [`Self::cast_real`].
    fn cast_complex(
        &self,
        src: &ComplexBuffer,
        p: Precision,
        dst: &mut ComplexBuffer,
    ) -> Result<(), BackendError>;

    /// Bit-deterministic tree reduction: sum the `flat.len()/len` parts of
    /// `flat` into `flat[..len]` with a fixed association order
    /// (independent of thread count).
    fn tree_reduce(&self, flat: &mut RealBuffer, len: usize) -> Result<(), BackendError>;

    /// Modeled device phase times accumulated since the last reset, for
    /// backends that keep a clock ([`crate::SimulatedDevice`]); `None`
    /// for backends that execute for real.
    fn modeled_times(&self) -> Option<PhaseTimes> {
        None
    }
}
