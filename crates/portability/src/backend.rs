//! The portability device backend.
//!
//! After hipification the application binds each logical kernel to a
//! per-vendor artifact and device. This is the runtime half of the
//! portability story: one maintained source, two executable targets —
//! surfaced to the rest of the workspace as a
//! [`fftmatvec_backend::DeviceBackend`], the same trait
//! the CPU pool and the simulated device implement.
//!
//! In this offline environment the backend goes as far as the toolchain
//! allows: construction runs the full hipify pipeline and validates
//! every kernel source (translation failures are build errors), while
//! the execution primitives return
//! [`BackendError::Unavailable`] — the typed landing pad a real GPU
//! runtime replaces.

use std::sync::Arc;

use fftmatvec_backend::{BackendError, BackendKind, BatchFft, DeviceBackend, TransferStats};
use fftmatvec_gpu::{CdnaGeneration, DeviceSpec};
use fftmatvec_numeric::{ComplexBuffer, Precision, RealBuffer};

use crate::pipeline::{Artifact, BuildError, HipifyPipeline};

/// GPU vendor a kernel source compiles for. This is *not* a backend in
/// the [`BackendKind`] sense — both vendors sit behind the one
/// `portability` backend; the vendor only selects the translation path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuVendor {
    /// NVIDIA path — the maintained sources compile as-is.
    Cuda,
    /// AMD path — sources are hipified on the fly.
    Hip,
}

impl GpuVendor {
    /// The compiler the build system invokes for this target.
    pub fn compiler(self) -> &'static str {
        match self {
            GpuVendor::Cuda => "nvcc",
            GpuVendor::Hip => "amdclang++",
        }
    }
}

/// A built application: every kernel bound to a vendor and a device,
/// dispatchable through the workspace-wide [`DeviceBackend`] trait.
pub struct PortabilityBackend {
    vendor: GpuVendor,
    device: DeviceSpec,
    artifacts: Vec<Artifact>,
}

impl std::fmt::Debug for PortabilityBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortabilityBackend")
            .field("vendor", &self.vendor)
            .field("device", &self.device.name)
            .field("artifacts", &self.artifacts.len())
            .finish()
    }
}

impl PortabilityBackend {
    /// Build the FFTMatvec application for a vendor/device pair: runs
    /// the hipify pipeline over every registered kernel source and keeps
    /// the built artifacts.
    pub fn build(vendor: GpuVendor, device: DeviceSpec) -> Result<Self, BuildError> {
        let mut pipeline = HipifyPipeline::fftmatvec_app();
        let artifacts = pipeline.build_all(vendor)?;
        Ok(PortabilityBackend { vendor, device, artifacts })
    }

    /// Build for a simulated NVIDIA device (CUDA pass-through).
    pub fn cuda_reference() -> Result<Self, BuildError> {
        // An A100-class device for the NVIDIA side of the comparison.
        let device = DeviceSpec {
            name: "A100-80GB (simulated)",
            generation: CdnaGeneration::Cdna2, // generation is AMD-specific; unused here
            peak_bw: 2.0e12,
            peak_fp64: 9.7e12,
            peak_fp32: 19.5e12,
            peak_fp16: 78.0e12,
            cu_count: 108,
            wavefront: 32,
            lds_bytes: 164 * 1024,
            launch_latency: 3.0e-6,
            memory_bytes: 80 * (1u64 << 30),
            sbgemv_cap_fp64: 0.72,
            sbgemv_cap_fp32: 0.70,
            sbgemv_cap_fp16: 0.60,
            streaming_cap: 0.85,
            fft_cap: 0.80,
        };
        Self::build(GpuVendor::Cuda, device)
    }

    /// The bound vendor.
    pub fn vendor(&self) -> GpuVendor {
        self.vendor
    }

    /// The bound device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Look up a built artifact by logical source name.
    pub fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.iter().find(|a| a.name == name)
    }

    /// All artifacts.
    pub fn artifacts(&self) -> &[Artifact] {
        &self.artifacts
    }

    fn unavailable(&self, what: &str) -> BackendError {
        BackendError::Unavailable {
            backend: "portability",
            reason: format!(
                "{what}: kernels are hipified and validated ({} artifacts for {:?}) but no GPU \
                 runtime exists in this environment to execute them",
                self.artifacts.len(),
                self.vendor,
            ),
        }
    }
}

impl DeviceBackend for PortabilityBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Portability
    }

    fn name(&self) -> &'static str {
        "portability"
    }

    fn record_upload(&self, _bytes: usize) {}

    fn record_download(&self, _bytes: usize) {}

    fn transfers(&self) -> TransferStats {
        TransferStats::default()
    }

    fn reset_transfers(&self) {}

    fn real_fft(&self, _p: Precision, _n: usize) -> Result<Arc<dyn BatchFft>, BackendError> {
        Err(self.unavailable("batched FFT plan"))
    }

    fn pointwise_multiply(
        &self,
        _io: &mut ComplexBuffer,
        _sym: &ComplexBuffer,
        _conj: bool,
    ) -> Result<(), BackendError> {
        Err(self.unavailable("pointwise multiply"))
    }

    fn cast_real(
        &self,
        _src: &RealBuffer,
        _p: Precision,
        _dst: &mut RealBuffer,
    ) -> Result<(), BackendError> {
        Err(self.unavailable("batched cast"))
    }

    fn cast_complex(
        &self,
        _src: &ComplexBuffer,
        _p: Precision,
        _dst: &mut ComplexBuffer,
    ) -> Result<(), BackendError> {
        Err(self.unavailable("batched cast"))
    }

    fn tree_reduce(&self, _flat: &mut RealBuffer, _len: usize) -> Result<(), BackendError> {
        Err(self.unavailable("tree reduce"))
    }
}

/// The factory [`install`] registers: hipify + validate the AMD build
/// for the paper's flagship device. Translation failures surface as
/// [`BackendError::Unavailable`] at selection time.
fn portability_factory() -> Result<Arc<dyn DeviceBackend>, BackendError> {
    match PortabilityBackend::build(GpuVendor::Hip, DeviceSpec::mi300x()) {
        Ok(backend) => Ok(Arc::new(backend)),
        Err(e) => Err(BackendError::Unavailable {
            backend: "portability",
            reason: format!("hipify build failed: {e}"),
        }),
    }
}

/// Register the portability backend with the process-wide registry, so
/// `FFTMATVEC_BACKEND=portability` (or `.backend(..)`) can select it.
/// Returns `false` if a portability factory was already installed.
pub fn install() -> bool {
    fftmatvec_backend::register_portability(portability_factory)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hip_backend_builds_for_all_amd_devices() {
        for dev in DeviceSpec::paper_lineup() {
            let d = PortabilityBackend::build(GpuVendor::Hip, dev.clone()).unwrap();
            assert_eq!(d.vendor(), GpuVendor::Hip);
            assert_eq!(d.device().name, dev.name);
            assert_eq!(d.artifacts().len(), 6);
            assert!(d.artifact("sbgemv_host.cu").is_some());
            assert!(d.artifact("missing.cu").is_none());
        }
    }

    #[test]
    fn cuda_backend_keeps_sources_verbatim() {
        let d = PortabilityBackend::cuda_reference().unwrap();
        assert_eq!(d.vendor(), GpuVendor::Cuda);
        let pad = d.artifact("pad_kernel.cu").unwrap();
        assert_eq!(pad.source, crate::kernels_cuda::PAD_KERNEL);
    }

    #[test]
    fn compilers() {
        assert_eq!(GpuVendor::Cuda.compiler(), "nvcc");
        assert_eq!(GpuVendor::Hip.compiler(), "amdclang++");
    }

    #[test]
    fn same_logical_kernels_on_both_vendors() {
        let cuda = PortabilityBackend::cuda_reference().unwrap();
        let hip = PortabilityBackend::build(GpuVendor::Hip, DeviceSpec::mi300x()).unwrap();
        let mut cn: Vec<&str> = cuda.artifacts().iter().map(|a| a.name.as_str()).collect();
        let mut hn: Vec<&str> = hip.artifacts().iter().map(|a| a.name.as_str()).collect();
        cn.sort();
        hn.sort();
        assert_eq!(cn, hn, "one source tree, two targets");
    }

    #[test]
    fn execution_primitives_are_typed_unavailable() {
        let d = PortabilityBackend::build(GpuVendor::Hip, DeviceSpec::mi300x()).unwrap();
        assert_eq!(d.kind(), BackendKind::Portability);
        let err = d.real_fft(Precision::Double, 8).unwrap_err();
        match err {
            BackendError::Unavailable { backend, reason } => {
                assert_eq!(backend, "portability");
                assert!(reason.contains("6 artifacts"), "reason: {reason}");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        let mut io = ComplexBuffer::zeros(Precision::Double, 4);
        let sym = ComplexBuffer::zeros(Precision::Double, 4);
        assert!(d.pointwise_multiply(&mut io, &sym, false).is_err());
    }

    #[test]
    fn install_registers_the_factory() {
        // First call wins; either way the registry now resolves the
        // portability kind to a real build attempt.
        install();
        let built = fftmatvec_backend::create(BackendKind::Portability).unwrap();
        assert_eq!(built.kind(), BackendKind::Portability);
        assert_eq!(built.name(), "portability");
    }
}
