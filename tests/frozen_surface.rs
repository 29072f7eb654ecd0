//! The frozen surface: every public item the end-to-end benchmark
//! (`bench_e2e/src`) reaches, each imported and called once, untimed.
//!
//! The benchmark is built from the same source as the library but cannot
//! change with it, so an item it calls may lose its last caller inside the
//! library — `layout::{pad_input_into, unpad_output_into}`,
//! `DeviceBackend::cast_real` and `BatchFft::{forward, inverse}` no longer
//! run in any apply, because the transforms fold pad, cast and unpad into
//! their first and last passes — and still must keep its name and
//! signature. A rename or signature change fails to compile here, before
//! it fails the benchmark. Each entry's comment names the replay or metric
//! that needs it.

use std::sync::Arc;

use fftmatvec::backend::{BatchFft, DeviceBackend, SimulatedDevice};
use fftmatvec::blas::{sbgemv, BatchGeometry, GemvOp};
use fftmatvec::core::timing::{simulate_phases, MatvecDims};
use fftmatvec::core::{
    autotune, layout, BlockToeplitzOperator, BoundParams, DirectMatvec, FftMatvec, LinearOperator,
    MatvecPhase, OpDirection, PhaseWeights, PrecisionConfig, TierCalibration,
};
use fftmatvec::fft::{FftDirection, NdFft};
use fftmatvec::gpu::Phase;
use fftmatvec::numeric::vecmath::rel_l2_error;
use fftmatvec::numeric::{Complex, ComplexBuffer, Precision, RealBuffer, SplitMix64, C64};
use fftmatvec::service::{OperatorRegistry, Service, ServiceConfig, ServiceStats, Ticket};
use fftmatvec::toeplitz::{ToeplitzGenerator, TwoLevelToeplitz};

const ND: usize = 2;
const NM: usize = 3;
const NT: usize = 4;
const NFREQ: usize = NT + 1;

fn operator() -> BlockToeplitzOperator {
    let mut col = vec![0.0; NT * ND * NM];
    SplitMix64::new(1).fill_uniform(&mut col, -1.0, 1.0);
    // Set-up of every block-triangular workload (`setup_s`).
    BlockToeplitzOperator::from_first_block_column(ND, NM, NT, &col).unwrap()
}

#[test]
fn block_triangular_replay_surface() {
    let op = Arc::new(operator());
    // `setup_s`: the pipelines every block-triangular workload times.
    let mv: FftMatvec = FftMatvec::builder_arc(Arc::clone(&op))
        .precision("ddddd".parse::<PrecisionConfig>().unwrap())
        .build()
        .unwrap();
    let (m, d) = (vec![0.5; NM * NT], vec![0.25; ND * NT]);
    let (mut out_f, mut out_a) = (vec![0.0; ND * NT], vec![0.0; NM * NT]);
    // `fwd_p50_us` / `adj_p50_us`: the timed applies.
    mv.apply_forward_into(&m, &mut out_f).unwrap();
    mv.apply_adjoint_into(&d, &mut out_a).unwrap();
    // `correct`: the direct block-convolution oracle and its error.
    let direct = DirectMatvec::new(&op);
    let mut want = vec![0.0; ND * NT];
    direct.apply_forward_into(&m, &mut want).unwrap();
    assert!(rel_l2_error(&out_f, &want) < 1e-12);
    // The oracle's sampled rows read single blocks.
    assert_eq!(op.block(0).len(), ND * NM);

    // The traced replay of the five phases (`core.layout.*`, `backend.*`,
    // `fft.*`, `blas.*` per-layer metrics), through the pipeline's device.
    let cfg = mv.config();
    let device = mv.device();
    let (p_pad, p_fft) = (cfg.phase(MatvecPhase::Pad), cfg.phase(MatvecPhase::Fft));
    // `backend.plan_lookup_us` and the replay's engines.
    let engine = DeviceBackend::real_fft(&**device, p_fft, 2 * NT).unwrap();
    // `core.layout.{fwd,adj}_pad_us`.
    let mut padded = RealBuffer::F64(Vec::new());
    layout::pad_input_into(&m, NM, NT, p_pad, &mut padded);
    // `backend.{fwd,adj}_cast_us`.
    let mut casted = RealBuffer::F64(Vec::new());
    DeviceBackend::cast_real(&**device, &padded, p_fft, &mut casted).unwrap();
    // `fft.{fwd,adj}_fft_us`.
    let mut spectrum = ComplexBuffer::zeros(p_fft, NM * NFREQ);
    BatchFft::forward(&*engine, &casted, &mut spectrum).unwrap();
    // `core.layout.{fwd,adj}_reorder_in_us`.
    let p_gemv = cfg.phase(MatvecPhase::Sbgemv);
    let mut xhat = ComplexBuffer::C64(Vec::new());
    layout::spectrum_to_batch_into(&spectrum, NM, NFREQ, p_gemv, &mut xhat);
    // `blas.{fwd,adj}_sbgemv_us`: the block-major strided batched GEMV on
    // the lazily materialized `fhat()` view (and `fhat32()` in `dssdd`).
    let g = BatchGeometry::packed(ND, NM, GemvOp::NoTrans, op.nfreq());
    let mut yhat = ComplexBuffer::zeros(p_gemv, ND * NFREQ);
    let (ComplexBuffer::C64(x), ComplexBuffer::C64(y)) = (&xhat, &mut yhat) else {
        unreachable!("ddddd runs phase 3 in double")
    };
    sbgemv(GemvOp::NoTrans, Complex::one(), op.fhat(), x, Complex::zero(), y, &g);
    assert_eq!(op.fhat32().len(), op.fhat().len());
    // `core.layout.{fwd,adj}_reorder_out_us`.
    let p_ifft = cfg.phase(MatvecPhase::Ifft);
    let mut dspec = ComplexBuffer::C64(Vec::new());
    layout::batch_to_spectrum_into(&yhat, ND, NFREQ, p_ifft, &mut dspec);
    // `fft.{fwd,adj}_ifft_us`.
    let mut time = RealBuffer::zeros(p_ifft, ND * 2 * NT);
    BatchFft::inverse(&*engine, &dspec, &mut time).unwrap();
    // `core.layout.{fwd,adj}_unpad_us`.
    let mut replayed = vec![0.0; ND * NT];
    layout::unpad_output_into(&time, ND, NT, cfg.phase(MatvecPhase::Unpad), &mut replayed);
    // The replay's bit check against the apply (`failed`).
    assert_eq!(replayed, out_f);

    // `backend.bytes_{up,down}_per_apply` and `casts_per_apply`.
    device.reset_transfers();
    let _ = device.transfers();
    // `core.pipeline.workspaces_peak`.
    assert!(mv.workspaces_peak_in_flight() >= 1);
    // The L3 note: the narrow `F̂` footprint of the SBGEMV tier.
    assert!(op.fhat_bytes() > 0 && p_gemv.complex_bytes() == 16);
    assert_eq!((op.nd(), op.nm(), op.nt()), (ND, NM, NT));
}

#[test]
fn modeled_and_autotune_surface() {
    // `backend.modeled_sbgemv_share`: the closed form on the MI300X spec.
    let mi300x = SimulatedDevice::mi300x();
    let cfg: PrecisionConfig = "dssdd".parse().unwrap();
    let share = simulate_phases(MatvecDims::new(ND, NM, NT), cfg, false, mi300x.spec())
        .fraction(Phase::Sbgemv);
    assert!((0.0..=1.0).contains(&share));

    // `core.autotune.admissible_configs` and `core.autotune.resolve_ms`.
    let params = BoundParams::for_direction(OpDirection::Forward, NT, ND, NM, 1, 1, 1.0);
    assert!(!autotune::admissible_configs(1e-6, &params).is_empty());
    let mut private = FftMatvec::builder_arc(Arc::new(operator())).build().unwrap();
    let weights = PhaseWeights::for_shape(ND, NM, NT, OpDirection::Forward);
    let choice = autotune::autotune(
        &mut private,
        OpDirection::Forward,
        1e-6,
        &params,
        &weights,
        &mut TierCalibration::new(),
    )
    .unwrap();
    assert!(choice.bound.total <= 1e-6);
}

#[test]
fn toeplitz_replay_surface() {
    // `setup_s` of `toeplitz_2level`.
    let gen = ToeplitzGenerator::two_level((2, 2), (3, 3), vec![0.5; 3 * 5]).unwrap();
    let op = TwoLevelToeplitz::builder(gen).build().unwrap();
    let (x, mut y) = (vec![1.0; 6], vec![0.0; 6]);
    // `fwd_p50_us` / `adj_p50_us`.
    op.apply_forward_into(&x, &mut y).unwrap();
    op.apply_adjoint_into(&x, &mut y).unwrap();
    // The traced side replay: a complex `NdFft` over the logical circulant
    // extents (`fft.fftn_{fwd,inv}_us`) and the device's pointwise multiply
    // (`backend.pointwise_us`).
    let sym = op.symbol_shared();
    let ndfft = NdFft::<f64>::new(sym.work_dims());
    let mut grid = vec![C64::expi(0.5); sym.grid_len()];
    let mut partner = vec![C64::zero(); sym.grid_len()];
    ndfft.process(&mut grid, &mut partner, FftDirection::Forward);
    let mut io = ComplexBuffer::C64(grid);
    let unit = ComplexBuffer::C64(vec![C64::one(); sym.grid_len()]);
    op.device().pointwise_multiply(&mut io, &unit, false).unwrap();
    // `toeplitz.workspace_peak_bytes` and `core.pipeline.workspaces_peak`.
    assert!(op.workspace_peak_bytes() > 0);
    assert!(op.workspaces_peak_in_flight() >= 1);
    let _: Precision = Precision::Double;
}

#[test]
fn service_surface() {
    // `serve_solver` / `serve_block` set-up.
    let registry = Arc::new(OperatorRegistry::new());
    registry.register_fft("op", FftMatvec::builder_arc(Arc::new(operator()))).unwrap();
    let service = Service::new(registry, ServiceConfig::default());
    // `fwd_p50_us` / `ops_per_s`: a request submitted and waited for.
    let ticket: Ticket = service.submit("op", OpDirection::Forward, vec![0.5; NM * NT]).unwrap();
    assert_eq!(ticket.wait().unwrap().len(), ND * NT);
    // `correct`: the stats reconcile (`service.*` per-layer metrics).
    let stats: ServiceStats = service.stats();
    assert_eq!(stats.submitted, stats.completed);
    assert_eq!(stats.rejected + stats.expired + stats.failed + stats.panicked, 0);
    // `service.mean_batch`, `service.window_occupancy` and
    // `service.stats_p50_us`.
    let occupancy = stats.mean_batch() / service.config().max_batch as f64;
    assert!(occupancy > 0.0);
    assert!(stats.latency_quantile_us(0.5).is_some());
}
