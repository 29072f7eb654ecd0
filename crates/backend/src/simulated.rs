//! [`SimulatedDevice`] — a [`CpuPool`] plus a modeled device clock.
//!
//! Arithmetic and the transfer ledger are the inner [`CpuPool`]'s (so
//! results are bit-identical — the determinism gate runs a
//! `FFTMATVEC_BACKEND=simulated` leg to pin this). On top, the device
//! keeps one [`PhaseTimes`] cell that is booked **once per apply**: the
//! pipeline hands [`DeviceBackend::record_apply`] the applied kernel's
//! cost model and the device evaluates it on its [`DeviceSpec`]. The
//! model itself lives with the kernels (`fftmatvec_core::timing` for the
//! block-triangular matvec, the pointwise kernel for multi-level
//! Toeplitz), so the five compute phases of the ledger are exactly the
//! closed form the figure binaries print; individual primitives
//! (`real_fft`, casts, `pointwise_multiply`, `tree_reduce`) book nothing.
//!
//! The one charge made here is the transfer edge: every recorded
//! upload/download adds a launch plus `bytes /` [`HOST_LINK_BYTES_PER_SEC`] to
//! [`Phase::Comm`] — a PCIe Gen5 x16-class link, deliberately far below
//! HBM bandwidth so placement tests see the transfer cliff the paper's
//! Section 2.4 setup amortizes away.

use std::sync::{Arc, Mutex, PoisonError};

use fftmatvec_gpu::{DeviceSpec, Phase, PhaseTimes};
use fftmatvec_numeric::{ComplexBuffer, Precision, RealBuffer};

use crate::cpu::CpuPool;
use crate::error::BackendError;
use crate::kind::BackendKind;
use crate::traits::{BatchFft, DeviceBackend, TransferStats};

/// Modeled host↔device link bandwidth (bytes/s): PCIe Gen5 x16 class.
pub const HOST_LINK_BYTES_PER_SEC: f64 = 64e9;

/// A simulated GPU: CPU execution, modeled device timings.
#[derive(Debug)]
pub struct SimulatedDevice {
    pool: CpuPool,
    spec: DeviceSpec,
    times: Mutex<PhaseTimes>,
}

impl Default for SimulatedDevice {
    /// The paper's middle device (MI300X) — the lineup's representative
    /// tuned part.
    fn default() -> Self {
        Self::mi300x()
    }
}

impl SimulatedDevice {
    /// Simulate an arbitrary device specification.
    pub fn new(spec: DeviceSpec) -> Self {
        SimulatedDevice { pool: CpuPool::new(), spec, times: Mutex::default() }
    }

    /// One MI250X Graphics Compute Die (CDNA2).
    pub fn mi250x_gcd() -> Self {
        Self::new(DeviceSpec::mi250x_gcd())
    }

    /// AMD Instinct MI300X (CDNA3).
    pub fn mi300x() -> Self {
        Self::new(DeviceSpec::mi300x())
    }

    /// AMD Instinct MI355X (CDNA4, untuned rocBLAS caps).
    pub fn mi355x() -> Self {
        Self::new(DeviceSpec::mi355x())
    }

    /// The paper's three evaluation devices, in presentation order.
    pub fn paper_lineup() -> Vec<SimulatedDevice> {
        DeviceSpec::paper_lineup().into_iter().map(Self::new).collect()
    }

    /// The simulated device's specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Snapshot of the modeled per-phase device times accumulated since
    /// construction or the last [`DeviceBackend::reset_transfers`].
    pub fn modeled(&self) -> PhaseTimes {
        self.clock().clone()
    }

    /// The clock cell. Every update is a plain `f64` add, so a panic
    /// elsewhere while it was held cannot leave it half-written.
    fn clock(&self) -> std::sync::MutexGuard<'_, PhaseTimes> {
        self.times.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn book_link(&self, bytes: usize) {
        let seconds = self.spec.launch_latency + bytes as f64 / HOST_LINK_BYTES_PER_SEC;
        self.clock().add(Phase::Comm, seconds);
    }
}

impl DeviceBackend for SimulatedDevice {
    fn kind(&self) -> BackendKind {
        BackendKind::Simulated
    }

    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn record_upload(&self, bytes: usize) {
        self.pool.record_upload(bytes);
        self.book_link(bytes);
    }

    fn record_download(&self, bytes: usize) {
        self.pool.record_download(bytes);
        self.book_link(bytes);
    }

    fn record_apply(&self, modeled: &dyn Fn(&DeviceSpec) -> PhaseTimes) {
        let apply = modeled(&self.spec);
        self.clock().add_with(&apply);
    }

    fn transfers(&self) -> TransferStats {
        self.pool.transfers()
    }

    fn reset_transfers(&self) {
        self.pool.reset_transfers();
        self.clock().clear();
    }

    fn real_fft(&self, p: Precision, n: usize) -> Result<Arc<dyn BatchFft>, BackendError> {
        self.pool.real_fft(p, n)
    }

    fn pointwise_multiply(
        &self,
        io: &mut ComplexBuffer,
        sym: &ComplexBuffer,
        conj: bool,
    ) -> Result<(), BackendError> {
        self.pool.pointwise_multiply(io, sym, conj)
    }

    fn cast_real(
        &self,
        src: &RealBuffer,
        p: Precision,
        dst: &mut RealBuffer,
    ) -> Result<(), BackendError> {
        self.pool.cast_real(src, p, dst)
    }

    fn cast_complex(
        &self,
        src: &ComplexBuffer,
        p: Precision,
        dst: &mut ComplexBuffer,
    ) -> Result<(), BackendError> {
        self.pool.cast_complex(src, p, dst)
    }

    fn tree_reduce(&self, flat: &mut RealBuffer, len: usize) -> Result<(), BackendError> {
        self.pool.tree_reduce(flat, len)
    }

    fn modeled_times(&self) -> Option<PhaseTimes> {
        Some(self.modeled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPool;

    #[test]
    fn executes_bit_identically_to_cpu_pool() {
        let sim = SimulatedDevice::mi300x();
        let cpu = CpuPool::new();
        let n = 24;
        let x: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.1).cos()).collect();
        let input = RealBuffer::from_f64(Precision::Single, &x);
        let fft_s = sim.real_fft(Precision::Single, n).unwrap();
        let fft_c = cpu.real_fft(Precision::Single, n).unwrap();
        let mut spec_s = ComplexBuffer::zeros(Precision::Single, 2 * (n / 2 + 1));
        let mut spec_c = ComplexBuffer::zeros(Precision::Single, 2 * (n / 2 + 1));
        fft_s.forward(&input, &mut spec_s).unwrap();
        fft_c.forward(&input, &mut spec_c).unwrap();
        for i in 0..spec_s.len() {
            assert_eq!(spec_s.get(i), spec_c.get(i), "bin {i}");
        }
    }

    #[test]
    fn record_apply_books_the_kernel_model_on_this_spec_and_cpu_pool_skips_it() {
        let sim = SimulatedDevice::mi250x_gcd();
        let model = |spec: &DeviceSpec| {
            let mut t = PhaseTimes::new();
            t.add(Phase::Sbgemv, spec.launch_latency);
            t
        };
        sim.record_apply(&model);
        sim.record_apply(&model);
        assert_eq!(sim.modeled().get(Phase::Sbgemv), 2.0 * sim.spec().launch_latency);
        assert_eq!(sim.modeled().total(), sim.modeled().get(Phase::Sbgemv));
        sim.reset_transfers();
        assert_eq!(sim.modeled().total(), 0.0);
        CpuPool::new().record_apply(&|_| unreachable!("a real backend keeps no modeled clock"));
    }

    #[test]
    fn transfers_are_counted_and_charged_to_comm() {
        let sim = SimulatedDevice::mi355x();
        sim.record_upload(8000);
        sim.record_download(8000);
        let stats = sim.transfers();
        assert_eq!(stats.uploads, 1);
        assert_eq!(stats.downloads, 1);
        assert_eq!(stats.bytes_up, 8000);
        assert_eq!(stats.bytes_down, 8000);
        let comm = sim.modeled().get(Phase::Comm);
        // Two launches + 16 kB over the 64 GB/s link.
        let floor = 2.0 * sim.spec().launch_latency + 16000.0 / HOST_LINK_BYTES_PER_SEC;
        assert!((comm - floor).abs() < 1e-12, "comm={comm} floor={floor}");
    }
}
