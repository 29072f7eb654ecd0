//! Cross-crate integration tests: every layer of the stack agreeing with
//! every other — FFT pipeline vs direct convolution vs dense algebra,
//! single-rank vs distributed, the PDE layer vs the Toeplitz layer, and
//! the timing/portability substrates staying consistent with the compute
//! path.

use fftmatvec::comm::{NetworkModel, ProcessGrid};
use fftmatvec::core::timing::{simulate_phases, MatvecDims};
use fftmatvec::core::{
    BlockToeplitzOperator, DirectMatvec, DistributedFftMatvec, FftMatvec, LinearOperator,
    PrecisionConfig,
};
use fftmatvec::gpu::{DeviceSpec, Phase};
use fftmatvec::lti::{HeatEquation1D, LtiSystem, P2oMap};
use fftmatvec::numeric::vecmath::rel_l2_error;
use fftmatvec::numeric::SplitMix64;
use fftmatvec::portability::{GpuVendor, HipifyPipeline};

fn random_operator(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, -1.0, 1.0);
    BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap()
}

#[test]
fn fft_direct_and_dense_all_agree() {
    let (nd, nm, nt) = (3usize, 9usize, 12usize);
    let op = random_operator(nd, nm, nt, 1);
    let dense = op.dense();
    let mut rng = SplitMix64::new(2);
    let mut m = vec![0.0; nm * nt];
    rng.fill_uniform(&mut m, -1.0, 1.0);

    let rows = nd * nt;
    let cols = nm * nt;
    let want: Vec<f64> =
        (0..rows).map(|i| (0..cols).map(|j| dense[i * cols + j] * m[j]).sum()).collect();

    let direct = DirectMatvec::new(&op).apply_forward(&m).unwrap();
    assert!(rel_l2_error(&direct, &want) < 1e-13, "direct vs dense");

    let mv = FftMatvec::builder(op).build().unwrap();
    let fft = mv.apply_forward(&m).unwrap();
    assert!(rel_l2_error(&fft, &want) < 1e-12, "fft vs dense");
}

#[test]
fn distributed_equals_single_rank_for_every_config_on_a_grid() {
    let (nd, nm, nt) = (4usize, 12usize, 8usize);
    let mut rng = SplitMix64::new(3);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, 0.0, 1.0);
    let mut m = vec![0.0; nm * nt];
    rng.fill_uniform_stuffed(&mut m, 0.0, 1.0);

    for cfg_str in ["ddddd", "dssdd", "dssds", "sssss"] {
        let cfg: PrecisionConfig = cfg_str.parse().unwrap();
        let single =
            DistributedFftMatvec::from_global(nd, nm, nt, &col, ProcessGrid::single(), cfg)
                .unwrap();
        let reference = single.apply_forward(&m).unwrap();
        let dist = DistributedFftMatvec::from_global(nd, nm, nt, &col, ProcessGrid::new(2, 3), cfg)
            .unwrap();
        let got = dist.apply_forward(&m).unwrap();
        // Partitioned execution reorders the floating-point reductions, so
        // results agree to the precision of the configuration, not bitwise.
        let tol = if cfg.is_all_double() { 1e-12 } else { 1e-5 };
        let err = rel_l2_error(&got, &reference);
        assert!(err < tol, "{cfg_str}: {err}");
    }
}

#[test]
fn pde_p2o_through_full_stack() {
    // Heat equation → adjoint-assembled p2o → FFT pipeline → observations
    // must equal brute-force time stepping; and the adjoint matvec must be
    // the gradient of the data misfit (finite-difference check).
    let sys = HeatEquation1D::new(20, 0.02, 0.3);
    let sensors = [5usize, 14];
    let nt = 10;
    let p2o = P2oMap::assemble(&sys, &sensors, nt).unwrap();
    let mv = FftMatvec::builder(p2o.operator).build().unwrap();

    let mut rng = SplitMix64::new(4);
    let mut m = vec![0.0; 20 * nt];
    rng.fill_uniform(&mut m, -1.0, 1.0);

    // Brute force observation.
    let traj = sys.forward_trajectory(&m, nt);
    let mut want = vec![0.0; 2 * nt];
    for k in 0..nt {
        for (i, &s) in sensors.iter().enumerate() {
            want[k * 2 + i] = traj[k * 20 + s];
        }
    }
    let got = mv.apply_forward(&m).unwrap();
    assert!(rel_l2_error(&got, &want) < 1e-11);

    // Gradient check: J(m) = ½‖F m − d‖²; ∇J = F*(F m − d).
    let mut d = vec![0.0; 2 * nt];
    rng.fill_uniform(&mut d, -1.0, 1.0);
    let resid: Vec<f64> = got.iter().zip(&d).map(|(a, b)| a - b).collect();
    let grad = mv.apply_adjoint(&resid).unwrap();
    let mut dir = vec![0.0; 20 * nt];
    rng.fill_uniform(&mut dir, -1.0, 1.0);
    let eps = 1e-6;
    let j = |mm: &[f64]| -> f64 {
        let f = mv.apply_forward(mm).unwrap();
        0.5 * f.iter().zip(&d).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
    };
    let m_plus: Vec<f64> = m.iter().zip(&dir).map(|(a, b)| a + eps * b).collect();
    let m_minus: Vec<f64> = m.iter().zip(&dir).map(|(a, b)| a - eps * b).collect();
    let fd = (j(&m_plus) - j(&m_minus)) / (2.0 * eps);
    let analytic: f64 = grad.iter().zip(&dir).map(|(a, b)| a * b).sum();
    assert!(
        (fd - analytic).abs() < 1e-5 * analytic.abs().max(1.0),
        "gradient check: fd {fd} vs analytic {analytic}"
    );
}

#[test]
fn simulated_times_respect_physical_sanity() {
    // The modeled compute never beats the device's peak bandwidth on the
    // bytes every phase must at least touch once.
    let dims = MatvecDims::new(100, 5000, 1000);
    for dev in DeviceSpec::paper_lineup() {
        for cfg_str in ["ddddd", "dssdd", "sssss"] {
            let cfg: PrecisionConfig = cfg_str.parse().unwrap();
            let t = simulate_phases(dims, cfg, false, &dev);
            // The matrix alone is (nt+1)*nd*nm complex elements.
            let p3 = cfg.phase(fftmatvec::core::MatvecPhase::Sbgemv);
            let matrix_bytes = (1001 * 100 * 5000 * p3.complex_bytes()) as f64;
            let floor = matrix_bytes / dev.peak_bw;
            assert!(
                t.get(Phase::Sbgemv) >= floor,
                "{} {cfg_str}: SBGEMV {} below bandwidth floor {}",
                dev.name,
                t.get(Phase::Sbgemv),
                floor
            );
            assert!(t.total() < 1.0, "modeled time should be sub-second");
        }
    }
}

#[test]
fn distributed_simulation_combines_compute_and_comm() {
    let (nd, nm, nt) = (4usize, 32usize, 8usize);
    let mut rng = SplitMix64::new(6);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, 0.0, 1.0);
    let net = NetworkModel::frontier();
    let dev = DeviceSpec::mi250x_gcd();

    let grids = [ProcessGrid::new(1, 4), ProcessGrid::new(2, 8), ProcessGrid::new(4, 8)];
    let mut prev_comm = 0.0;
    for grid in grids {
        let dist = DistributedFftMatvec::from_global(
            nd,
            nm,
            nt,
            &col,
            grid,
            PrecisionConfig::all_double(),
        )
        .unwrap();
        let t = dist.simulate(&dev, &net, false);
        let comm = t.get(Phase::Comm);
        assert!(comm > 0.0);
        assert!(comm >= prev_comm, "comm should not shrink as the grid grows here");
        prev_comm = comm;
    }
}

#[test]
fn hipified_application_and_compute_pipeline_share_kernel_names() {
    // The portability layer's artifact set covers the pipeline's phases:
    // pad, unpad, SBGEMV dispatch, FFT plans, reduction.
    let arts = HipifyPipeline::fftmatvec_app().build_all(GpuVendor::Hip).unwrap();
    let artifact = |name: &str| arts.iter().find(|a| a.name == name);
    for needed in
        ["pad_kernel.cu", "unpad_kernel.cu", "sbgemv_host.cu", "fft_host.cu", "nccl_reduce.cu"]
    {
        let art = artifact(needed).unwrap_or_else(|| panic!("missing {needed}"));
        assert!(art.replacements > 0);
    }
    // And the hipified SBGEMV host calls the rocBLAS entry points our BLAS
    // crate models.
    let sb = artifact("sbgemv_host.cu").unwrap();
    assert!(sb.source.contains("rocblas_zgemv_strided_batched"));
    assert!(sb.source.contains("rocblas_operation_conjugate_transpose"));
}
