//! Device specifications for the simulated AMD Instinct GPUs.
//!
//! Peak numbers follow the public datasheets and the values quoted in the
//! paper (Section 4.1.2: "1.6 TB/s → 5.3 TB/s → 8 TB/s going from MI250X →
//! MI300X → MI355X"). The SBGEMV efficiency caps are calibrated from the
//! paper's reported achieved-bandwidth fractions: ~70% of peak on
//! MI250X/MI300X and ~35% on MI355X (rocBLAS not yet tuned for CDNA4),
//! with the FP32 path on CDNA4 proportionally weaker — the stated reason
//! the MI355X mixed-precision speedup saturates near 40% instead of the
//! 70–95% seen on the older parts.

use fftmatvec_numeric::Precision;

/// AMD CDNA architecture generation (drives tuning-cap selection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CdnaGeneration {
    /// MI200 series.
    Cdna2,
    /// MI300 series.
    Cdna3,
    /// MI350 series.
    Cdna4,
}

/// Specification of one simulated GPU (for MI250X: one GCD, matching the
/// paper's convention of counting each GCD as an independent GPU).
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Marketing name used in reports.
    pub name: &'static str,
    /// Architecture generation.
    pub generation: CdnaGeneration,
    /// Peak HBM bandwidth in bytes/second.
    pub peak_bw: f64,
    /// Peak FP64 vector throughput in FLOP/s.
    pub peak_fp64: f64,
    /// Peak FP32 vector throughput in FLOP/s.
    pub peak_fp32: f64,
    /// Peak FP16/BF16 vector throughput in FLOP/s (the tensor/matrix-core
    /// rates are far higher; GEMV-class kernels see the vector rate).
    pub peak_fp16: f64,
    /// Number of compute units.
    pub cu_count: usize,
    /// Wavefront (warp) width in lanes.
    pub wavefront: usize,
    /// LDS (shared memory) bytes per CU.
    pub lds_bytes: usize,
    /// Kernel launch latency in seconds.
    pub launch_latency: f64,
    /// HBM capacity in bytes (per GPU / GCD).
    pub memory_bytes: u64,
    /// Achieved-bandwidth cap for well-tuned GEMV-class kernels in FP64.
    pub sbgemv_cap_fp64: f64,
    /// Achieved-bandwidth cap for GEMV-class kernels in FP32.
    pub sbgemv_cap_fp32: f64,
    /// Achieved-bandwidth cap for GEMV-class kernels in FP16/BF16.
    /// Modeled below the FP32 cap: no vendor BLAS tunes half-precision
    /// GEMV on these parts (the 16-bit tiers are software-emulated here,
    /// pending a tensor-core backend).
    pub sbgemv_cap_fp16: f64,
    /// Achieved-bandwidth cap for streaming kernels (pad/unpad/cast).
    pub streaming_cap: f64,
    /// Achieved-bandwidth cap for FFT kernels.
    pub fft_cap: f64,
}

impl DeviceSpec {
    /// One Graphics Compute Die of an AMD Instinct MI250X (CDNA2).
    pub fn mi250x_gcd() -> Self {
        DeviceSpec {
            name: "MI250X (Single GCD)",
            generation: CdnaGeneration::Cdna2,
            peak_bw: 1.6384e12,
            peak_fp64: 23.95e12,
            peak_fp32: 23.95e12,
            peak_fp16: 47.9e12,
            cu_count: 110,
            wavefront: 64,
            lds_bytes: 64 * 1024,
            launch_latency: 2.5e-6,
            memory_bytes: 64 * (1u64 << 30),
            sbgemv_cap_fp64: 0.72,
            // FP32 GEMV on CDNA2 is a little less tuned than FP64 — this
            // produces the paper's ~75% (vs MI300X's ~95%) mixed speedup.
            sbgemv_cap_fp32: 0.64,
            sbgemv_cap_fp16: 0.55,
            streaming_cap: 0.85,
            fft_cap: 0.80,
        }
    }

    /// AMD Instinct MI300X (CDNA3).
    pub fn mi300x() -> Self {
        DeviceSpec {
            name: "MI300X",
            generation: CdnaGeneration::Cdna3,
            peak_bw: 5.3e12,
            peak_fp64: 81.7e12,
            peak_fp32: 163.4e12,
            peak_fp16: 326.8e12,
            cu_count: 304,
            wavefront: 64,
            lds_bytes: 64 * 1024,
            launch_latency: 1.5e-6,
            memory_bytes: 192 * (1u64 << 30),
            sbgemv_cap_fp64: 0.72,
            sbgemv_cap_fp32: 0.70,
            sbgemv_cap_fp16: 0.60,
            streaming_cap: 0.85,
            fft_cap: 0.80,
        }
    }

    /// AMD Instinct MI355X (CDNA4). rocBLAS kernel parameters are tuned
    /// for CDNA2/3; the paper measures only ~35% of peak for SBGEMV here,
    /// and proportionally less in FP32 — hence the lower caps.
    pub fn mi355x() -> Self {
        DeviceSpec {
            name: "MI355X",
            generation: CdnaGeneration::Cdna4,
            peak_bw: 8.0e12,
            peak_fp64: 78.6e12,
            peak_fp32: 157.2e12,
            peak_fp16: 314.4e12,
            cu_count: 256,
            wavefront: 64,
            lds_bytes: 160 * 1024,
            launch_latency: 1.5e-6,
            memory_bytes: 288 * (1u64 << 30),
            sbgemv_cap_fp64: 0.37,
            sbgemv_cap_fp32: 0.26,
            sbgemv_cap_fp16: 0.20,
            streaming_cap: 0.80,
            fft_cap: 0.70,
        }
    }

    /// The three devices the paper evaluates, in presentation order.
    pub fn paper_lineup() -> Vec<DeviceSpec> {
        vec![Self::mi250x_gcd(), Self::mi300x(), Self::mi355x()]
    }

    /// GEMV-class tuning cap for a compute precision.
    pub fn sbgemv_cap(&self, p: Precision) -> f64 {
        match p {
            Precision::Half | Precision::BFloat16 => self.sbgemv_cap_fp16,
            Precision::Single => self.sbgemv_cap_fp32,
            Precision::Double => self.sbgemv_cap_fp64,
        }
    }

    /// Peak FLOP/s for a compute precision. The two 16-bit tiers share
    /// the FP16 vector rate (bf16 multiplies feed FP32 accumulators at
    /// the same issue width on CDNA).
    pub fn peak_flops(&self, p: Precision) -> f64 {
        match p {
            Precision::Half | Precision::BFloat16 => self.peak_fp16,
            Precision::Single => self.peak_fp32,
            Precision::Double => self.peak_fp64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidth_progression() {
        let lineup = DeviceSpec::paper_lineup();
        assert_eq!(lineup.len(), 3);
        // 1.6 → 5.3 → 8 TB/s (Section 4.1.2).
        assert!(lineup[0].peak_bw < lineup[1].peak_bw);
        assert!(lineup[1].peak_bw < lineup[2].peak_bw);
        assert!((lineup[2].peak_bw / lineup[0].peak_bw - 4.88).abs() < 0.1);
    }

    #[test]
    fn cdna4_sbgemv_caps_are_lower() {
        let mi300 = DeviceSpec::mi300x();
        let mi355 = DeviceSpec::mi355x();
        assert!(mi355.sbgemv_cap_fp64 < mi300.sbgemv_cap_fp64 / 1.5);
        assert!(mi355.sbgemv_cap_fp32 < mi355.sbgemv_cap_fp64);
    }

    #[test]
    fn memory_capacities_match_datasheets() {
        assert_eq!(DeviceSpec::mi250x_gcd().memory_bytes, 64 << 30);
        assert_eq!(DeviceSpec::mi300x().memory_bytes, 192 << 30);
        assert_eq!(DeviceSpec::mi355x().memory_bytes, 288 << 30);
    }

    #[test]
    fn precision_selectors() {
        let d = DeviceSpec::mi355x();
        assert_eq!(d.sbgemv_cap(Precision::Double), d.sbgemv_cap_fp64);
        assert_eq!(d.sbgemv_cap(Precision::Single), d.sbgemv_cap_fp32);
        assert_eq!(d.sbgemv_cap(Precision::Half), d.sbgemv_cap_fp16);
        assert_eq!(d.sbgemv_cap(Precision::BFloat16), d.sbgemv_cap_fp16);
        assert!(d.peak_flops(Precision::Single) > d.peak_flops(Precision::Double));
        assert!(d.peak_flops(Precision::Half) >= d.peak_flops(Precision::Single));
        // Half-GEMV is modeled as less tuned than FP32 on every device.
        for dev in DeviceSpec::paper_lineup() {
            assert!(dev.sbgemv_cap_fp16 < dev.sbgemv_cap_fp32, "{}", dev.name);
        }
    }
}
