//! Property-based tests for the GPU cost model: physical sanity
//! (bandwidth never exceeds peak, efficiency in (0, 1]), monotonicity in
//! bytes and work-per-block, and phase-time accounting closure.

use fftmatvec_gpu::{DeviceSpec, KernelClass, KernelProfile, Phase, PhaseTimes};
use fftmatvec_numeric::DType;
use proptest::prelude::*;

fn devices() -> Vec<DeviceSpec> {
    DeviceSpec::paper_lineup()
}

fn profile(bytes: f64, wpb: f64, blocks: f64, dtype: DType) -> KernelProfile {
    KernelProfile {
        name: "prop",
        class: KernelClass::Gemv,
        dtype,
        bytes_read: bytes,
        bytes_written: bytes * 0.01,
        flops: 0.0,
        gridblocks: blocks,
        work_bytes_per_block: wpb,
        efficiency_override: None,
    }
}

fn dtype_from(i: u8) -> DType {
    DType::ALL[(i % 4) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Achieved bandwidth never exceeds the device peak; efficiency stays
    /// in (0, 1]; time is positive and at least the bandwidth floor.
    #[test]
    fn physical_sanity(
        bytes in 1.0e3f64..1e12,
        wpb in 1.0f64..1e7,
        blocks in 1.0f64..1e7,
        d in 0u8..4,
    ) {
        for dev in devices() {
            let p = profile(bytes, wpb, blocks, dtype_from(d));
            let eff = p.efficiency(&dev);
            prop_assert!(eff > 0.0 && eff <= 1.0, "{}: eff {eff}", dev.name);
            let t = p.estimate_time(&dev);
            prop_assert!(t > 0.0);
            prop_assert!(t >= p.total_bytes() / dev.peak_bw, "faster than light");
            prop_assert!(p.achieved_bandwidth(&dev) <= dev.peak_bw * 1.0000001);
        }
    }

    /// More bytes never takes less time (same geometry).
    #[test]
    fn monotone_in_bytes(
        bytes in 1.0e3f64..1e11,
        factor in 1.0f64..100.0,
        wpb in 16.0f64..1e6,
        blocks in 1.0f64..1e6,
    ) {
        let dev = DeviceSpec::mi300x();
        let t1 = profile(bytes, wpb, blocks, DType::RealF64).estimate_time(&dev);
        let t2 = profile(bytes * factor, wpb, blocks, DType::RealF64).estimate_time(&dev);
        prop_assert!(t2 >= t1 * 0.9999999);
    }

    /// More work per gridblock never lowers efficiency (the Figure-1
    /// saturation law is monotone).
    #[test]
    fn monotone_in_work_per_block(
        wpb in 16.0f64..1e6,
        factor in 1.0f64..1000.0,
        d in 0u8..4,
    ) {
        let dev = DeviceSpec::mi250x_gcd();
        let e1 = profile(1e9, wpb, 1e6, dtype_from(d)).efficiency(&dev);
        let e2 = profile(1e9, wpb * factor, 1e6, dtype_from(d)).efficiency(&dev);
        prop_assert!(e2 >= e1 * 0.9999999, "{e1} -> {e2}");
    }

    /// Phase accounting: total == sum of compute phases + comm; fractions
    /// sum to one over the accounted phases; max_with is a pointwise
    /// upper bound of both operands.
    #[test]
    fn phase_times_closure(values in prop::collection::vec(0.0f64..1.0, 6)) {
        let phases = [Phase::Pad, Phase::Fft, Phase::Sbgemv, Phase::Ifft, Phase::Unpad, Phase::Comm];
        let mut t = PhaseTimes::new();
        for (&p, &v) in phases.iter().zip(&values) {
            t.add(p, v);
        }
        let sum: f64 = values.iter().sum();
        prop_assert!((t.total() - sum).abs() < 1e-12);
        let compute: f64 = values[..5].iter().sum();
        prop_assert!((t.compute_total() - compute).abs() < 1e-12);

        let mut other = PhaseTimes::new();
        other.add(Phase::Sbgemv, 2.0);
        let mut merged = t.clone();
        merged.max_with(&other);
        for &p in &phases {
            prop_assert!(merged.get(p) >= t.get(p));
            prop_assert!(merged.get(p) >= other.get(p));
        }
    }

    /// FFT profiles scale linearly in batch and stay memory-bound for
    /// the transform lengths FFTMatvec uses.
    #[test]
    fn fft_profile_scaling(n_exp in 6u32..13, batch in 1usize..4096) {
        let n = 1usize << n_exp;
        let p1 = KernelProfile::fft("f", DType::ComplexF64, n, batch);
        let p2 = KernelProfile::fft("f", DType::ComplexF64, n, batch * 2);
        prop_assert!((p2.total_bytes() / p1.total_bytes() - 2.0).abs() < 1e-9);
        prop_assert!((p2.flops / p1.flops - 2.0).abs() < 1e-9);
        let dev = DeviceSpec::mi300x();
        // Memory time dominates flop time at these sizes.
        let mem = p1.total_bytes() / (dev.peak_bw * p1.efficiency(&dev));
        prop_assert!(p1.estimate_time(&dev) <= mem + dev.launch_latency + 1e-12);
    }
}
