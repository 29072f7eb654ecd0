//! The GPU kernel dispatcher and launch cost models.
//!
//! The paper integrates its optimized kernel into rocBLAS's host
//! dispatcher so applications pick it up transparently; the *transition
//! points* between kernels were set from `rocblas-bench` sweeps
//! (Section 4.1.1). [`select_kernel`] is that dispatcher as a *model*:
//! it names the GPU kernel a shape would launch, and [`kernel_profile`]
//! produces the [`KernelProfile`] whose modeled achieved bandwidth
//! regenerates Figure 1 and feeds the phase simulator. Nothing here
//! executes, and the CPU makes no selection: the pipeline stores every
//! spectrum frequency-minor and runs [`crate::sbgemv_freq_minor`].

use fftmatvec_gpu::{KernelClass, KernelProfile};
use fftmatvec_numeric::DType;

use crate::types::{GemvOp, KernelChoice};
use crate::{OPT_TILE_COLS, REF_ROW_BLOCK};

/// Rows above which the rocBLAS transpose kernel has enough per-block work
/// to stay competitive; the dispatcher keeps it there. Set from the
/// Figure-1 sweep: at m = 2048, baseline 63.3% vs optimized 67.8% — close
/// enough that upstream keeps the original above this point.
pub const TRANSITION_M: usize = 2048;

/// Skew (n/m) above which the optimized kernel is used even for large m.
pub const TRANSITION_SKEW: usize = 2;

/// Choose the kernel the way the patched rocBLAS host dispatcher does.
pub fn select_kernel(op: GemvOp, m: usize, n: usize) -> KernelChoice {
    if !op.is_transposed() {
        // The non-transpose kernel was already well-tuned; unchanged.
        return KernelChoice::Reference;
    }
    if m < TRANSITION_M || n >= TRANSITION_SKEW * m {
        KernelChoice::Optimized
    } else {
        KernelChoice::Reference
    }
}

/// Modeled efficiency of the optimized kernel. The tiled launch keeps
/// per-block work large regardless of m, so it sits near 70% of peak with
/// a mild bonus on heavily skewed shapes (more independent column tiles
/// per matrix to overlap) — matching the 58–84% band of Figure 1.
fn optimized_efficiency(m: usize, n: usize) -> f64 {
    let skew = (n as f64 / m as f64).max(1.0);
    (0.70 + 0.04 * (skew.ln() / 2.0).tanh()).clamp(0.55, 0.85)
}

/// Build the launch cost profile for a kernel/op/shape combination.
///
/// Matrix bytes dominate: each of the `batch` matrices is streamed once;
/// the input and output vectors are lower-order terms but included.
pub fn kernel_profile(
    kernel: KernelChoice,
    op: GemvOp,
    dtype: DType,
    m: usize,
    n: usize,
    batch: usize,
) -> KernelProfile {
    let eb = dtype.bytes() as f64;
    let bm = (m * n * batch) as f64 * eb;
    let bx = (op.input_len(m, n) * batch) as f64 * eb;
    let by = (op.output_len(m, n) * batch) as f64 * eb;
    let flops = (m * n * batch) as f64 * dtype.flops_per_mac() as f64;

    let (name, gridblocks, work_bytes_per_block, efficiency_override) = match (kernel, op) {
        (KernelChoice::Reference, GemvOp::NoTrans) => (
            "rocblas_gemv_n",
            (m.div_ceil(REF_ROW_BLOCK) * batch) as f64,
            (REF_ROW_BLOCK.min(m) * n) as f64 * eb,
            None,
        ),
        (KernelChoice::Reference, _) => (
            // Grid n × 1 × batch; each gridblock computes ONE dot product
            // of length m — the Section-3.1.1 pathology.
            "rocblas_gemv_t",
            (n * batch) as f64,
            m as f64 * eb,
            None,
        ),
        (KernelChoice::Optimized, GemvOp::NoTrans) => (
            // Falls back to the unchanged non-transpose kernel.
            "rocblas_gemv_n",
            (m.div_ceil(REF_ROW_BLOCK) * batch) as f64,
            (REF_ROW_BLOCK.min(m) * n) as f64 * eb,
            None,
        ),
        (KernelChoice::Optimized, _) => (
            "optimized_sbgemv_t",
            (n.div_ceil(OPT_TILE_COLS) * batch) as f64,
            (OPT_TILE_COLS.min(n) * m) as f64 * eb,
            Some(optimized_efficiency(m, n)),
        ),
    };

    KernelProfile {
        name,
        class: KernelClass::Gemv,
        dtype,
        bytes_read: bm + bx,
        bytes_written: by,
        flops,
        gridblocks,
        work_bytes_per_block,
        efficiency_override,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sbgemv, BatchGeometry};
    use fftmatvec_gpu::DeviceSpec;
    use fftmatvec_numeric::{Complex, SplitMix64};

    #[test]
    fn dispatcher_transition_points() {
        // Short-wide transpose → optimized (the paper's case).
        assert_eq!(select_kernel(GemvOp::ConjTrans, 100, 5000), KernelChoice::Optimized);
        assert_eq!(select_kernel(GemvOp::Trans, 128, 4096), KernelChoice::Optimized);
        // Large square transpose → the existing kernel is fine.
        assert_eq!(select_kernel(GemvOp::Trans, 4096, 4096), KernelChoice::Reference);
        // Large but skewed → optimized.
        assert_eq!(select_kernel(GemvOp::Trans, 4096, 16384), KernelChoice::Optimized);
        // Non-transpose is never rerouted.
        assert_eq!(select_kernel(GemvOp::NoTrans, 100, 5000), KernelChoice::Reference);
    }

    #[test]
    fn figure1_shape_optimized_beats_baseline_on_skewed() {
        let dev = DeviceSpec::mi300x();
        for dtype in DType::ALL {
            let base =
                kernel_profile(KernelChoice::Reference, GemvOp::Trans, dtype, 128, 4096, 100);
            let opt = kernel_profile(KernelChoice::Optimized, GemvOp::Trans, dtype, 128, 4096, 100);
            let bw_base = base.achieved_bandwidth(&dev) / dev.peak_bw;
            let bw_opt = opt.achieved_bandwidth(&dev) / dev.peak_bw;
            assert!(bw_opt > 1.5 * bw_base, "{dtype}: opt {bw_opt:.3} vs base {bw_base:.3}");
        }
    }

    #[test]
    fn figure1_gap_shrinks_for_square_and_heavy_dtypes() {
        let dev = DeviceSpec::mi300x();
        let gain = |dtype: DType, m: usize, n: usize| {
            let base = kernel_profile(KernelChoice::Reference, GemvOp::Trans, dtype, m, n, 100);
            let opt = kernel_profile(KernelChoice::Optimized, GemvOp::Trans, dtype, m, n, 100);
            opt.achieved_bandwidth(&dev) / base.achieved_bandwidth(&dev)
        };
        // Lighter dtype ⇒ bigger relative gain at fixed shape.
        assert!(gain(DType::RealF32, 128, 4096) > gain(DType::ComplexF64, 128, 4096));
        // More skew ⇒ bigger gain at fixed dtype.
        assert!(gain(DType::RealF32, 128, 4096) > gain(DType::RealF32, 2048, 2048));
        // Square 2048² gains little (the upstream transition rationale).
        let g = gain(DType::RealF32, 2048, 2048);
        assert!(g < 1.3, "square gain should be small, got {g}");
    }

    #[test]
    fn auto_dispatch_computes_correctly() {
        let (m, n, batch) = (16usize, 96usize, 4usize);
        let op = GemvOp::ConjTrans;
        let mut rng = SplitMix64::new(1);
        let g = BatchGeometry::packed(m, n, op, batch);
        let a: Vec<Complex<f64>> = (0..batch * m * n)
            .map(|_| Complex::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        let x: Vec<Complex<f64>> = (0..batch * m)
            .map(|_| Complex::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        let mut y = vec![Complex::zero(); batch * n];
        sbgemv(op, Complex::one(), &a, &x, Complex::zero(), &mut y, &g);
        for (k, &got) in y.iter().enumerate() {
            let (b, j) = (k / n, k % n);
            let want = (0..m)
                .fold(Complex::zero(), |acc, i| acc + a[(b * n + j) * m + i].conj() * x[b * m + i]);
            assert!((got - want).abs() < 1e-12, "batch {b} output {j}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn profile_bytes_account_matrix_and_vectors() {
        let p = kernel_profile(
            KernelChoice::Reference,
            GemvOp::Trans,
            DType::ComplexF64,
            100,
            5000,
            1001,
        );
        let expect_matrix = (100 * 5000 * 1001) as f64 * 16.0;
        assert!(p.bytes_read > expect_matrix);
        assert!(p.bytes_read < expect_matrix * 1.01);
        assert!(p.bytes_written > 0.0);
    }

    #[test]
    fn optimized_efficiency_band() {
        // Figure-1 observed band: roughly 58–84% of peak.
        for (m, n) in [(128, 4096), (256, 256), (256, 8192), (512, 512), (2048, 2048)] {
            let e = optimized_efficiency(m, n);
            assert!((0.55..=0.85).contains(&e), "({m},{n}) -> {e}");
        }
        assert!(optimized_efficiency(128, 4096) > optimized_efficiency(256, 256));
    }
}
