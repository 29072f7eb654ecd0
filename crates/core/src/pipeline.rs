//! The block-triangular Toeplitz instantiation of the tiered spectral
//! pipeline ([`crate::spectral`]): the paper's five-phase FFTMatvec with
//! dynamic mixed precision.
//!
//! Both matvec directions share the same pipeline skeleton:
//!
//! ```text
//! F :  d = Unpad( IFFT( F̂ ·  FFT(Pad(m)) ) )      (NoTrans GEMV)
//! F*:  m = Unpad( IFFT( F̂ᴴ · FFT(Pad(d)) ) )      (ConjTrans GEMV)
//! ```
//!
//! The working precision is tracked through the phases: each phase
//! computes in its configured precision, the pad and unpad memory
//! operations — casts included — run inside the transforms' first and
//! last passes, and the input/output vectors are always double
//! (Section 3.2 — downstream inverse-problem computations need FP64
//! endpoints).
//!
//! This file supplies only what is specific to the family — the
//! [`SbgemvKernel`] (batched real FFT engines through the
//! [`DeviceBackend`], the four-spectrum workspace, the five phases in
//! three calls for a whole panel of columns — pad fused into the forward
//! transform, unpad into the inverse — with the frequency-minor batched
//! GEMV, in register panels, as symbol apply) and the
//! [`FftMatvecBuilder`]. Engine retention, pooled zero-allocation
//! workspaces, budget resolution, batching and diagnostics are the
//! shared [`TieredPipeline`]'s.

use std::sync::Arc;

use fftmatvec_backend::{BackendError, BatchFft, DeviceBackend};
use fftmatvec_blas::{sbgemv_freq_minor_many, GemvOp};
use fftmatvec_gpu::{DeviceSpec, PhaseTimes};
use fftmatvec_numeric::{ComplexBuffer, Precision, Scalar};

use crate::autotune::PhaseWeights;
use crate::error_analysis::{condition_estimate, BoundParams};
use crate::linop::{ConfigError, OpDirection, OpError, OpShape};
use crate::operator::BlockToeplitzOperator;
use crate::precision::{MatvecPhase, PrecisionConfig};
use crate::spectral::{BuildOptions, SpectralKernel, TieredPipeline};
use crate::timing::{simulate_phases, MatvecDims};
use crate::workspace::Workspace;

/// One panel's worth of intermediate buffers: the spectra on either side
/// of the symbol apply. The time-domain ends need none — the transforms
/// read the input and write the output in place. A buffer belongs to a
/// side of the operator and a tier, not to a direction or a phase: the
/// `N_m` series are F's input and F\*'s output, so one buffer per tier
/// holds them in both directions, and a workspace serving F and F\* grows
/// one `N_m`-wide and one `N_d`-wide spectrum per tier it uses, not two of
/// the wider (with panels of up to eight columns the wide one dominates).
/// Within one apply the buffers a side needs are in distinct tiers (the
/// transform's and the SBGEMV's when they differ), and a slot never
/// changes tier, so under a fixed configuration every buffer is reset,
/// not reallocated, once the widest panel has run.
#[derive(Default)]
pub struct MatvecWorkspace {
    m: SideSpectra,
    d: SideSpectra,
}

/// One side's spectra, one slot per tier (`Precision as usize`), empty
/// until a phase runs that side in that tier.
struct SideSpectra([ComplexBuffer; 4]);

impl Default for SideSpectra {
    /// All empty; `Vec::new()` does not allocate.
    fn default() -> Self {
        SideSpectra(std::array::from_fn(|_| ComplexBuffer::C64(Vec::new())))
    }
}

impl SideSpectra {
    /// The slot of tier `p`.
    fn tier(&mut self, p: Precision) -> &mut ComplexBuffer {
        &mut self.0[p as usize]
    }

    /// The slots of two distinct tiers: a cast's source and destination.
    fn cast_pair(
        &mut self,
        from: Precision,
        to: Precision,
    ) -> (&ComplexBuffer, &mut ComplexBuffer) {
        let (f, t) = (from as usize, to as usize);
        assert_ne!(f, t, "a cast changes tier");
        let (lo, hi) = self.0.split_at_mut(f.max(t));
        if f < t {
            (&lo[f], &mut hi[0])
        } else {
            (&hi[0], &mut lo[t])
        }
    }
}

impl Workspace for MatvecWorkspace {
    fn bytes(&self) -> usize {
        self.m.0.iter().chain(&self.d.0).map(ComplexBuffer::bytes).sum()
    }
}

/// The block-triangular symbol apply: the `N_t + 1` frequency matrices
/// `F̂_f` (`N_d × N_m`, stored frequency-minor), applied as one batched
/// GEMV with lanes across frequencies. The operator is held
/// behind an `Arc`, so several pipelines — e.g. the per-configuration
/// variants a budget-routing service keeps — share one frequency-domain
/// setup (`F̂` and its lazily-cached narrow copies) instead of
/// duplicating it.
#[derive(Clone)]
pub struct SbgemvKernel {
    op: Arc<BlockToeplitzOperator>,
}

impl SpectralKernel for SbgemvKernel {
    type Engine = Arc<dyn BatchFft>;
    type Workspace = MatvecWorkspace;

    fn shape(&self) -> OpShape {
        OpShape::new(self.op.nd() * self.op.nt(), self.op.nm() * self.op.nt())
    }

    fn plan(&self, device: &dyn DeviceBackend, p: Precision) -> Result<Self::Engine, BackendError> {
        device.real_fft(p, 2 * self.op.nt())
    }

    /// A panel of `cols` columns runs the five phases in three calls for
    /// all of them: one forward transform of every column's series, one
    /// register-panel SBGEMV, one inverse transform. The spectra sit
    /// column by column in the workspace, each column's `[series][freq]`.
    fn run(
        &self,
        pipe: &TieredPipeline<Self>,
        dir: OpDirection,
        inputs: &[f64],
        outs: &mut [f64],
        cols: usize,
        ws: &mut MatvecWorkspace,
    ) -> Result<(), OpError> {
        let op = &*self.op;
        let (nd, nm, nfreq) = (op.nd(), op.nm(), op.nfreq());
        // Series counts and spectra on each side of the GEMV.
        let MatvecWorkspace { m, d } = ws;
        let (gemv_op, n_in, n_out, ins, outs_side) = match dir {
            OpDirection::Forward => (GemvOp::NoTrans, nm, nd, m, d),
            OpDirection::Adjoint => (GemvOp::ConjTrans, nd, nm, d, m),
        };
        let (cfg, device) = (pipe.config(), pipe.device());

        // Phases 1 + 2 — broadcast + zero-pad (TOSI → SOTI) in cfg[Pad],
        // then the batched R2C FFT in cfg[Fft]: the transform's first
        // pass reads each column's TOSI input, rounds each sample through
        // cfg[Pad] into cfg[Fft], and never loads an embedding zero.
        let p_fft = cfg.phase(MatvecPhase::Fft);
        let spectrum = ins.tier(p_fft);
        spectrum.reset_for_overwrite(p_fft, cols * n_in * nfreq);
        let p_pad = cfg.phase(MatvecPhase::Pad);
        pipe.engine(p_fft)?.forward_padded_many(inputs, n_in, cols, p_pad, spectrum)?;

        // Phase 3 — the symbol apply in cfg[Sbgemv] on the frequency-minor
        // `F̂`: the kernel reads the forward engine's `[series][freq]`
        // spectra and writes the inverse engine's. With the three tiers
        // equal there is no pass in between and no other buffer is
        // sized; a differing neighbour costs one contiguous cast (the
        // device's, as for phase 2's input) — every element rounds as it
        // would in a casting SOTI↔TOSI reorder.
        let p_gemv = cfg.phase(MatvecPhase::Sbgemv);
        let p_ifft = cfg.phase(MatvecPhase::Ifft);
        let x: &ComplexBuffer = if p_fft == p_gemv {
            ins.tier(p_fft)
        } else {
            let (spectrum, xhat) = ins.cast_pair(p_fft, p_gemv);
            device.cast_complex(spectrum, p_gemv, xhat)?;
            xhat
        };
        let y = outs_side.tier(p_gemv);
        y.reset_for_overwrite(p_gemv, cols * n_out * nfreq);
        apply_symbol(op, gemv_op, op.stored().buffer(p_gemv), x, y, cols)?;
        if p_gemv != p_ifft {
            let (yhat, dspec) = outs_side.cast_pair(p_gemv, p_ifft);
            device.cast_complex(yhat, p_ifft, dspec)?;
        }

        // Phases 4 + 5 — batched C2R inverse FFT in cfg[Ifft], then unpad
        // (SOTI → TOSI) through cfg[Unpad] into the double output: the
        // transform's last pass computes only the kept half of each
        // series, scales it and stores it, routed, into its column of
        // `outs`.
        let p_unpad = cfg.phase(MatvecPhase::Unpad);
        pipe.engine(p_ifft)?.inverse_unpadded_many(outs_side.tier(p_ifft), cols, p_unpad, outs)?;
        Ok(())
    }

    /// Power iterations per sampled frequency: scan everything up to 32
    /// frequencies, subsample beyond that so budget resolution stays
    /// cheap at large `N_t`.
    fn condition_estimate(&self) -> f64 {
        condition_estimate(&self.op, (self.op.nfreq() / 32).max(1))
    }

    fn bound_params(&self, dir: OpDirection, kappa: f64) -> BoundParams {
        BoundParams::for_direction(dir, self.op.nt(), self.op.nd(), self.op.nm(), 1, 1, kappa)
    }

    fn phase_weights(&self, dir: OpDirection) -> PhaseWeights {
        PhaseWeights::for_shape(self.op.nd(), self.op.nm(), self.op.nt(), dir)
    }

    fn modeled_phases(
        &self,
        cfg: PrecisionConfig,
        dir: OpDirection,
        dev: &DeviceSpec,
    ) -> PhaseTimes {
        let dims = MatvecDims::new(self.op.nd(), self.op.nm(), self.op.nt());
        simulate_phases(dims, cfg, dir == OpDirection::Adjoint, dev)
    }
}

/// `y = op(F̂)·x` (α = 1, β = 0) for each of `cols` columns, with `fhat`
/// the frequency-minor `F̂`, in the tier all three buffers hold, `x` and
/// `y` each `cols` back-to-back `[series][freq]` spectra.
fn apply_symbol(
    op: &BlockToeplitzOperator,
    gemv_op: GemvOp,
    fhat: &ComplexBuffer,
    x: &ComplexBuffer,
    y: &mut ComplexBuffer,
    cols: usize,
) -> Result<(), OpError> {
    let dims = (op.nd(), op.nm(), op.nfreq());
    fn run<S: Scalar>(op: GemvOp, a: &[S], x: &[S], y: &mut [S], (m, n, nf): Dims, cols: usize) {
        sbgemv_freq_minor_many(op, a, x, y, m, n, nf, cols);
    }
    type Dims = (usize, usize, usize);
    use ComplexBuffer::{C16, C32, C64, CB16};
    match (fhat, x, y) {
        (C16(a), C16(x), C16(y)) => run(gemv_op, a, x, y, dims, cols),
        (CB16(a), CB16(x), CB16(y)) => run(gemv_op, a, x, y, dims, cols),
        (C32(a), C32(x), C32(y)) => run(gemv_op, a, x, y, dims, cols),
        (C64(a), C64(x), C64(y)) => run(gemv_op, a, x, y, dims, cols),
        _ => return Err(OpError::Internal("phase-3 tier mismatch")),
    }
    Ok(())
}

/// Fluent builder for [`FftMatvec`] — the only construction path.
///
/// ```
/// # use fftmatvec_core::{BlockToeplitzOperator, FftMatvec, PrecisionConfig};
/// # let op = BlockToeplitzOperator::from_first_block_column(1, 1, 2, &[1.0, 0.5]).unwrap();
/// let mv = FftMatvec::builder(op)
///     .precision(PrecisionConfig::optimal_forward())
///     .build()
///     .unwrap();
/// # let _ = mv;
/// ```
pub struct FftMatvecBuilder {
    op: Arc<BlockToeplitzOperator>,
    opts: BuildOptions,
}

impl FftMatvecBuilder {
    crate::spectral_builder_setters!(opts);

    /// Build the pipeline; see [`TieredPipeline::build`].
    pub fn build(self) -> Result<FftMatvec, ConfigError> {
        TieredPipeline::build(SbgemvKernel { op: self.op }, self.opts)
    }
}

/// A configured FFTMatvec ready to apply `F` and `F*` through the
/// [`LinearOperator`](crate::LinearOperator) trait: the shared
/// [`TieredPipeline`] over the [`SbgemvKernel`].
pub type FftMatvec = TieredPipeline<SbgemvKernel>;

impl FftMatvec {
    /// Start building a pipeline around `op`. The batched FFT engines for
    /// the configured tiers resolve through the process-wide plan cache
    /// (`fftmatvec_fft::cache`), so every `FftMatvec` of the same `N_t` —
    /// including the per-rank pipelines of the distributed matvec —
    /// shares one set of twiddle tables per precision.
    pub fn builder(op: BlockToeplitzOperator) -> FftMatvecBuilder {
        Self::builder_arc(Arc::new(op))
    }

    /// [`builder`](Self::builder) over an already-shared operator: the
    /// new pipeline reuses `op`'s frequency-domain setup (including any
    /// narrow `F̂` copies already materialized) instead of cloning it —
    /// how a budget-routing service builds per-configuration variants of
    /// one registered operator.
    pub fn builder_arc(op: Arc<BlockToeplitzOperator>) -> FftMatvecBuilder {
        FftMatvecBuilder { op, opts: BuildOptions::default() }
    }

    /// The shared double-precision FFT plan handle for this problem size.
    /// Handles for the same `N_t` compare pointer-equal across pipelines —
    /// useful for asserting (and testing) that plan construction is
    /// amortized. Returns the resident engine's own handle when the
    /// configuration has a double FFT tier (so the assertion really
    /// exercises the engine's plan, not just two cache lookups), and
    /// falls back to the process-wide cache otherwise.
    pub fn fft64_plan_handle(&self) -> fftmatvec_fft::RealPlanHandle<f64> {
        match self.resident_engine(Precision::Double).and_then(|e| e.plan_handle_f64()) {
            Some(handle) => handle,
            None => fftmatvec_fft::cache::real_plan::<f64>(2 * self.operator().nt()),
        }
    }

    /// The wrapped operator.
    pub fn operator(&self) -> &BlockToeplitzOperator {
        &self.kernel().op
    }

    /// A shared handle to the wrapped operator, for building further
    /// pipelines over the same setup ([`FftMatvec::builder_arc`]).
    pub fn operator_shared(&self) -> Arc<BlockToeplitzOperator> {
        Arc::clone(&self.kernel().op)
    }

    /// Recover the operator. When other pipelines still share it
    /// (built via [`builder_arc`](Self::builder_arc)), this deep-copies
    /// the double-precision setup rather than disturbing them.
    pub fn into_operator(self) -> BlockToeplitzOperator {
        Arc::try_unwrap(self.into_kernel().op).unwrap_or_else(|shared| (*shared).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;
    use crate::linop::LinearOperator;
    use crate::workspace::workspace_retention_cap;
    use crate::BackendKind;
    use fftmatvec_blas::BatchGeometry;
    use fftmatvec_numeric::vecmath::rel_l2_error;
    use fftmatvec_numeric::{RealBuffer, SplitMix64};

    fn random_operator(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
        let mut rng = SplitMix64::new(seed);
        let mut col = vec![0.0; nt * nd * nm];
        rng.fill_uniform(&mut col, -1.0, 1.0);
        BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap()
    }

    fn mv(op: BlockToeplitzOperator, cfg: PrecisionConfig) -> FftMatvec {
        FftMatvec::builder(op).precision(cfg).build().unwrap()
    }

    fn dense_forward(op: &BlockToeplitzOperator, m: &[f64]) -> Vec<f64> {
        let dense = op.dense();
        let rows = op.nd() * op.nt();
        let cols = op.nm() * op.nt();
        (0..rows).map(|i| (0..cols).map(|j| dense[i * cols + j] * m[j]).sum()).collect()
    }

    fn dense_adjoint(op: &BlockToeplitzOperator, d: &[f64]) -> Vec<f64> {
        let dense = op.dense();
        let rows = op.nd() * op.nt();
        let cols = op.nm() * op.nt();
        (0..cols).map(|j| (0..rows).map(|i| dense[i * cols + j] * d[i]).sum()).collect()
    }

    #[test]
    fn forward_matches_dense_oracle_double() {
        for (nd, nm, nt) in [(2usize, 5usize, 4usize), (3, 7, 8), (1, 1, 16), (4, 4, 5)] {
            let op = random_operator(nd, nm, nt, (nd * 100 + nm * 10 + nt) as u64);
            let mut rng = SplitMix64::new(99);
            let mut m = vec![0.0; nm * nt];
            rng.fill_uniform(&mut m, -1.0, 1.0);
            let want = dense_forward(&op, &m);
            let mv = mv(op, PrecisionConfig::all_double());
            let got = mv.apply_forward(&m).unwrap();
            let err = rel_l2_error(&got, &want);
            assert!(err < 1e-13, "({nd},{nm},{nt}): err {err}");
        }
    }

    #[test]
    fn adjoint_matches_dense_oracle_double() {
        for (nd, nm, nt) in [(2usize, 5usize, 4usize), (3, 7, 8), (2, 2, 10)] {
            let op = random_operator(nd, nm, nt, (nd + nm + nt) as u64);
            let mut rng = SplitMix64::new(7);
            let mut d = vec![0.0; nd * nt];
            rng.fill_uniform(&mut d, -1.0, 1.0);
            let want = dense_adjoint(&op, &d);
            let mv = mv(op, PrecisionConfig::all_double());
            let got = mv.apply_adjoint(&d).unwrap();
            let err = rel_l2_error(&got, &want);
            assert!(err < 1e-13, "({nd},{nm},{nt}): err {err}");
        }
    }

    #[test]
    fn adjoint_consistency_dot_product() {
        // ⟨F m, d⟩ == ⟨m, F* d⟩ for every precision configuration: the
        // adjoint property must hold structurally, not just in double.
        let op = random_operator(3, 6, 5, 42);
        let mut rng = SplitMix64::new(3);
        let mut m = vec![0.0; 6 * 5];
        let mut d = vec![0.0; 3 * 5];
        rng.fill_uniform(&mut m, -1.0, 1.0);
        rng.fill_uniform(&mut d, -1.0, 1.0);
        let mut mv = mv(op, PrecisionConfig::all_double());
        for cfg in PrecisionConfig::all_configs() {
            mv.set_config(cfg);
            let fm = mv.apply_forward(&m).unwrap();
            let fsd = mv.apply_adjoint(&d).unwrap();
            let lhs: f64 = fm.iter().zip(&d).map(|(a, b)| a * b).sum();
            let rhs: f64 = m.iter().zip(&fsd).map(|(a, b)| a * b).sum();
            let tol = if cfg.is_all_double() { 1e-12 } else { 1e-4 };
            assert!(
                (lhs - rhs).abs() <= tol * lhs.abs().max(rhs.abs()).max(1.0),
                "{cfg}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn mixed_precision_error_ordering() {
        let op = random_operator(4, 10, 8, 11);
        let mut rng = SplitMix64::new(5);
        let mut m = vec![0.0; 10 * 8];
        // Mantissa-stuffed inputs, as in the paper's Pareto methodology.
        rng.fill_uniform_stuffed(&mut m, -1.0, 1.0);

        let mut mv = mv(op, PrecisionConfig::all_double());
        let baseline = mv.apply_forward(&m).unwrap();

        mv.set_config(PrecisionConfig::all_single());
        let all_single = mv.apply_forward(&m).unwrap();
        let err_s = rel_l2_error(&all_single, &baseline);

        mv.set_config(PrecisionConfig::optimal_forward());
        let opt = mv.apply_forward(&m).unwrap();
        let err_opt = rel_l2_error(&opt, &baseline);

        // All-single is least accurate; the optimal config sits between
        // baseline (0) and all-single; both are in the FP32 regime.
        assert!(err_s > 0.0 && err_s < 1e-4, "err_s={err_s}");
        assert!(err_opt > 0.0 && err_opt <= err_s * 1.5, "err_opt={err_opt} err_s={err_s}");
        assert!(err_opt < 1e-5, "err_opt={err_opt}");
    }

    #[test]
    fn single_pad_alone_incurs_error_on_stuffed_input() {
        // The paper's §4.2.1 point: with mantissa-stuffed inputs, even a
        // single-precision *broadcast/pad* (a pure memory op) shows error.
        let op = random_operator(2, 4, 4, 13);
        let mut rng = SplitMix64::new(8);
        let mut m = vec![0.0; 4 * 4];
        rng.fill_uniform_stuffed(&mut m, -1.0, 1.0);
        let mut mv = mv(op, PrecisionConfig::all_double());
        let baseline = mv.apply_forward(&m).unwrap();
        mv.set_config("sdddd".parse().unwrap());
        let padded_single = mv.apply_forward(&m).unwrap();
        let err = rel_l2_error(&padded_single, &baseline);
        assert!(err > 1e-9, "stuffed input must make single pad lossy: {err}");
        assert!(err < 1e-5);
    }

    #[test]
    fn config_swap_without_rebuild() {
        let op = random_operator(2, 3, 4, 17);
        let mut rng = SplitMix64::new(2);
        let mut m = vec![0.0; 3 * 4];
        rng.fill_uniform(&mut m, -1.0, 1.0);
        let mut mv = mv(op, PrecisionConfig::all_double());
        let a = mv.apply_forward(&m).unwrap();
        mv.set_config("sssss".parse().unwrap());
        let _b = mv.apply_forward(&m).unwrap();
        mv.set_config(PrecisionConfig::all_double());
        let c = mv.apply_forward(&m).unwrap();
        assert_eq!(a, c, "double-precision results must be reproducible");
    }

    #[test]
    fn set_config_rebuilds_only_changed_tiers() {
        let op = random_operator(2, 3, 8, 71);
        let mut mv = mv(op, PrecisionConfig::all_double());
        let m = vec![1.0; 3 * 8];
        let mut out = vec![0.0; 2 * 8];
        mv.apply_forward_into(&m, &mut out).unwrap();
        let (d, s) = (Precision::Double, Precision::Single);
        let d_engine = Arc::clone(mv.resident_engine(d).expect("d engine resident"));

        // Changing only the GEMV tier must keep the d engine (and its
        // warmed scratch pool) untouched.
        mv.set_config("ddsdd".parse().unwrap());
        assert!(Arc::ptr_eq(mv.resident_engine(d).unwrap(), &d_engine), "engine kept");
        assert!(mv.resident_engine(s).is_none(), "no s engine needed");

        // dssdd adds the single-precision FFT tier: d survives, s built.
        mv.set_config(PrecisionConfig::optimal_forward());
        assert!(Arc::ptr_eq(mv.resident_engine(d).unwrap(), &d_engine), "d engine survives");
        let s_engine = Arc::clone(mv.resident_engine(s).expect("s engine built"));

        // sssss drops the double tier entirely and keeps the s engine.
        mv.set_config(PrecisionConfig::all_single());
        assert!(mv.resident_engine(d).is_none(), "d engine dropped");
        assert!(Arc::ptr_eq(mv.resident_engine(s).unwrap(), &s_engine), "s engine survives");
        mv.apply_forward_into(&m, &mut out).unwrap();
        assert!(Arc::ptr_eq(mv.resident_engine(s).unwrap(), &s_engine), "applies plan nothing");

        // Back to ddddd: the d tier is planned afresh.
        mv.set_config(PrecisionConfig::all_double());
        assert!(!Arc::ptr_eq(mv.resident_engine(d).unwrap(), &d_engine), "d engine rebuilt");
    }

    #[test]
    fn apply_into_bit_equals_allocating_apply() {
        let op = random_operator(3, 6, 8, 23);
        let mut mv = mv(op, PrecisionConfig::all_double());
        let mut rng = SplitMix64::new(4);
        let mut m = vec![0.0; 6 * 8];
        rng.fill_uniform(&mut m, -1.0, 1.0);
        for cfg in ["ddddd", "dssdd", "hbsdd"] {
            mv.set_config(cfg.parse().unwrap());
            let alloc = mv.apply_forward(&m).unwrap();
            let mut into = vec![f64::NAN; 3 * 8];
            mv.apply_forward_into(&m, &mut into).unwrap();
            assert_eq!(alloc, into, "{cfg}: into path must be bit-identical");
        }
    }

    #[test]
    fn builder_options() {
        let op = random_operator(2, 3, 4, 31);
        let mv = FftMatvec::builder(op)
            .precision(PrecisionConfig::optimal_forward())
            .backend(BackendKind::Cpu)
            .build()
            .unwrap();
        assert_eq!(mv.backend(), BackendKind::Cpu);
        assert_eq!(mv.config(), PrecisionConfig::optimal_forward());
        let m = vec![1.0; 3 * 4];
        let _ = mv.apply_forward(&m).unwrap();
    }

    #[test]
    fn pipelines_share_cached_fft_plans() {
        // Two operators with the same N_t must not rebuild twiddle tables:
        // both pipelines hold the same cached plan object.
        let a = mv(random_operator(2, 3, 6, 50), PrecisionConfig::all_double());
        let b = mv(random_operator(4, 5, 6, 51), PrecisionConfig::all_single());
        assert!(
            std::sync::Arc::ptr_eq(&a.fft64_plan_handle(), &b.fft64_plan_handle()),
            "same N_t must share one cached FFT plan"
        );
    }

    #[test]
    fn zero_input_maps_to_zero() {
        let op = random_operator(2, 3, 4, 19);
        let mv = mv(op, PrecisionConfig::optimal_forward());
        let d = mv.apply_forward(&[0.0; 3 * 4]).unwrap();
        assert!(d.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn causality_impulse_response() {
        // An impulse at time block t0 must produce zero output before t0
        // (block lower-triangular = causal LTI).
        let (nd, nm, nt) = (2usize, 3usize, 6usize);
        let op = random_operator(nd, nm, nt, 23);
        let mv = mv(op, PrecisionConfig::all_double());
        let t0 = 3;
        let mut m = vec![0.0; nm * nt];
        m[t0 * nm + 1] = 1.0;
        let d = mv.apply_forward(&m).unwrap();
        for t in 0..t0 {
            for i in 0..nd {
                assert!(
                    d[t * nd + i].abs() < 1e-12,
                    "non-causal output at t={t}: {}",
                    d[t * nd + i]
                );
            }
        }
        // And the response at t0 is the first block's column 1.
        for i in 0..nd {
            let want = mv.operator().block(0)[i * nm + 1];
            assert!((d[t0 * nd + i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn wrong_lengths_are_typed_errors_not_panics() {
        let op = random_operator(2, 3, 4, 29);
        let mv = mv(op, PrecisionConfig::all_double());
        assert_eq!(
            mv.apply_forward(&[0.0; 5]).unwrap_err(),
            OpError::InputLength { dir: OpDirection::Forward, expected: 12, got: 5 }
        );
        let mut short = [0.0; 3];
        assert_eq!(
            mv.apply_adjoint_into(&[0.0; 8], &mut short).unwrap_err(),
            OpError::OutputLength { dir: OpDirection::Adjoint, expected: 12, got: 3 }
        );
        let mut outs = [0.0; 8];
        assert!(matches!(
            mv.apply_many_into(OpDirection::Forward, &[0.0; 13], &mut outs).unwrap_err(),
            OpError::RaggedBatch { .. }
        ));
    }

    #[test]
    fn many_matches_individual_applies() {
        // 3×6 leaves both transforms' columns a lane remainder (6 and 3
        // series), so every panel runs them as one straddling batch; 13
        // columns are a panel of 8 (two register panels) and a ragged 5.
        let op = random_operator(3, 6, 8, 31);
        let mut mv = mv(op, PrecisionConfig::all_double());
        let mut rng = SplitMix64::new(9);
        let (in_len, out_len) = (6 * 8, 3 * 8);
        for code in ["ddddd", "sssss", "hhhhh", "bbbbb", "dssdd"] {
            mv.set_config(code.parse().unwrap());
            for batch in [1usize, 5, 13] {
                let mut inputs = vec![0.0; batch * in_len];
                rng.fill_uniform(&mut inputs, -1.0, 1.0);
                let mut outputs = vec![0.0; batch * out_len];
                mv.apply_forward_many_into(&inputs, &mut outputs).unwrap();
                for b in 0..batch {
                    let single = mv.apply_forward(&inputs[b * in_len..(b + 1) * in_len]).unwrap();
                    let got = &outputs[b * out_len..(b + 1) * out_len];
                    assert_eq!(bits(got), bits(&single), "{code} batch {batch}: F column {b}");
                }
                // Round-trip the batch through the adjoint direction too.
                let mut back = vec![0.0; batch * in_len];
                mv.apply_adjoint_many_into(&outputs, &mut back).unwrap();
                for b in 0..batch {
                    let single =
                        mv.apply_adjoint(&outputs[b * out_len..(b + 1) * out_len]).unwrap();
                    let got = &back[b * in_len..(b + 1) * in_len];
                    assert_eq!(bits(got), bits(&single), "{code} batch {batch}: F* column {b}");
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One apply the way the paper's phase 3 runs it: pad → engine →
    /// SOTI→TOSI reorder (casting) → strided batched `sbgemv` on the
    /// block-major `fhat*()` view → reorder back (casting) → engine →
    /// unpad, through `mv`'s own device and its configured tiers.
    fn block_major_replay(mv: &FftMatvec, dir: OpDirection, input: &[f64], out: &mut [f64]) {
        let op = mv.operator();
        let (nd, nm, nt, nfreq) = (op.nd(), op.nm(), op.nt(), op.nfreq());
        let (gemv_op, n_in, n_out) = match dir {
            OpDirection::Forward => (GemvOp::NoTrans, nm, nd),
            OpDirection::Adjoint => (GemvOp::ConjTrans, nd, nm),
        };
        let phase = |p| mv.config().phase(p);
        let device = mv.device();
        let engine = |p| device.real_fft(phase(p), 2 * nt).unwrap();

        let mut padded = RealBuffer::F64(Vec::new());
        layout::pad_input_into(input, n_in, nt, phase(MatvecPhase::Pad), &mut padded);
        let mut casted = RealBuffer::F64(Vec::new());
        device.cast_real(&padded, phase(MatvecPhase::Fft), &mut casted).unwrap();
        let mut spectrum = ComplexBuffer::zeros(phase(MatvecPhase::Fft), n_in * nfreq);
        engine(MatvecPhase::Fft).forward(&casted, &mut spectrum).unwrap();

        let p_gemv = phase(MatvecPhase::Sbgemv);
        let mut xhat = ComplexBuffer::C64(Vec::new());
        layout::spectrum_to_batch_into(&spectrum, n_in, nfreq, p_gemv, &mut xhat);
        let mut yhat = ComplexBuffer::zeros(p_gemv, n_out * nfreq);
        fn gemv<S: Scalar>(op: GemvOp, a: &[S], x: &[S], y: &mut [S], g: &BatchGeometry) {
            fftmatvec_blas::sbgemv(op, S::one(), a, x, S::zero(), y, g);
        }
        let g = BatchGeometry::packed(nd, nm, gemv_op, nfreq);
        match (op.fhat_in(p_gemv), &xhat, &mut yhat) {
            (ComplexBuffer::C16(a), ComplexBuffer::C16(x), ComplexBuffer::C16(y)) => {
                gemv(gemv_op, a, x, y, &g)
            }
            (ComplexBuffer::CB16(a), ComplexBuffer::CB16(x), ComplexBuffer::CB16(y)) => {
                gemv(gemv_op, a, x, y, &g)
            }
            (ComplexBuffer::C32(a), ComplexBuffer::C32(x), ComplexBuffer::C32(y)) => {
                gemv(gemv_op, a, x, y, &g)
            }
            (ComplexBuffer::C64(a), ComplexBuffer::C64(x), ComplexBuffer::C64(y)) => {
                gemv(gemv_op, a, x, y, &g)
            }
            _ => unreachable!("the operator view and both batch buffers are in the SBGEMV tier"),
        }

        let p_ifft = phase(MatvecPhase::Ifft);
        let mut dspec = ComplexBuffer::C64(Vec::new());
        layout::batch_to_spectrum_into(&yhat, n_out, nfreq, p_ifft, &mut dspec);
        let mut time = RealBuffer::zeros(p_ifft, n_out * 2 * nt);
        engine(MatvecPhase::Ifft).inverse(&dspec, &mut time).unwrap();
        layout::unpad_output_into(&time, n_out, nt, phase(MatvecPhase::Unpad), out);
    }

    #[test]
    fn pipeline_equals_the_block_major_replay_on_bits_in_every_config_and_direction() {
        // 4×4 and 2×16 are the serve / long-series blocks; 19×23 splits
        // both reductions past one base run; 16×256 is the paper block,
        // whose forward reduction spans four tree levels and whose batches
        // of 8 columns (17 408 elements read and written) sit above the
        // parallel `apply_many_into` threshold. nt = 9 leaves every lane
        // width a masked tail of frequencies. 2×16×250 is a paper-like
        // block at an odd-radix length: its half plans 250 = 2·5³ end in a
        // radix-5 pass that writes the unpadded output from a staged slice.
        let shapes =
            [(4usize, 4usize, 9usize), (2, 16, 64), (19, 23, 9), (16, 256, 8), (2, 16, 250)];
        for (nd, nm, nt) in shapes {
            let op = random_operator(nd, nm, nt, (nd * nm + nt) as u64);
            let mut mv = mv(op, PrecisionConfig::all_double());
            for code in ["ddddd", "dssdd", "ddssd", "hbsdd", "sdhbs"] {
                mv.set_config(code.parse().unwrap());
                for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                    let (in_len, out_len) = mv.shape().io_lens(dir);
                    let cols = 8;
                    let mut inputs = vec![0.0; cols * in_len];
                    SplitMix64::new(5).fill_uniform_stuffed(&mut inputs, -1.0, 1.0);
                    let mut got = vec![0.0; cols * out_len];
                    mv.apply_many_into(dir, &inputs, &mut got).unwrap();
                    let what = format!("{nd}x{nm}x{nt} {code} {dir}");
                    for (c, (input, got)) in
                        inputs.chunks(in_len).zip(got.chunks(out_len)).enumerate()
                    {
                        let mut want = vec![f64::NAN; out_len];
                        block_major_replay(&mv, dir, input, &mut want);
                        assert_eq!(bits(got), bits(&want), "{what}: column {c}");
                    }
                    // ... and a batch column is its solo apply.
                    let mut solo = vec![0.0; out_len];
                    mv.apply_into(dir, &inputs[in_len..2 * in_len], &mut solo).unwrap();
                    assert_eq!(bits(&solo), bits(&got[out_len..2 * out_len]), "{what}: solo");
                }
            }
        }
    }

    #[test]
    fn frequency_minor_applies_size_no_batch_buffers_when_tiers_agree() {
        let (nd, nm, nt) = (4, 4, 16);
        let mv = mv(random_operator(nd, nm, nt, 3), PrecisionConfig::all_double());
        let (m, mut out) = (vec![1.0; nm * nt], vec![0.0; nd * nt]);
        mv.apply_forward_into(&m, &mut out).unwrap();
        // ddddd F: `spectrum` and `dspec` (4 series × 17 C64 each); `xhat`
        // and `yhat` are never sized, and no time-domain buffer exists.
        assert_eq!(mv.workspace_peak_bytes(), 2 * 4 * 17 * 16);
    }

    #[test]
    fn non_finite_input_is_never_laundered() {
        // One NaN or +∞ among the inputs: whatever the SBGEMV tier and the
        // direction, the output holds a non-finite value — never an
        // all-finite vector that hides the poison.
        for (nd, nm, seed) in [(4, 4, 61), (5, 20, 67)] {
            let mut mv = mv(random_operator(nd, nm, 8, seed), PrecisionConfig::all_double());
            for tier in ["d", "s", "h", "b"] {
                mv.set_config(format!("dd{tier}dd").parse().unwrap());
                for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                    let (in_len, out_len) = mv.shape().io_lens(dir);
                    for poison in [f64::NAN, f64::INFINITY] {
                        let mut input = vec![0.0; in_len];
                        SplitMix64::new(71).fill_uniform(&mut input, -1.0, 1.0);
                        input[in_len / 3] = poison;
                        let mut out = vec![0.0; out_len];
                        mv.apply_into(dir, &input, &mut out).unwrap();
                        assert!(
                            out.iter().any(|v| !v.is_finite()),
                            "{nd}x{nm} dd{tier}dd {dir}: {poison} came out finite"
                        );
                    }
                }
            }
        }
    }

    /// The range tests' operator: identity first block, zero elsewhere, so
    /// F and F* are the identity and every phase of every config sees
    /// values of the input's size. Returns it with its condition estimate.
    fn identity_blocks(n: usize, nt: usize) -> (FftMatvec, f64) {
        let mut col = vec![0.0; nt * n * n];
        (0..n).for_each(|i| col[i * n + i] = 1.0);
        let op = BlockToeplitzOperator::from_first_block_column(n, n, nt, &col).unwrap();
        let kappa = crate::error_analysis::condition_estimate(&op, 1);
        (mv(op, PrecisionConfig::all_double()), kappa)
    }

    /// `len` uniform values in `±scale` with one entry at `scale`.
    fn max_norm_input(len: usize, scale: f64) -> Vec<f64> {
        let mut input = vec![0.0; len];
        SplitMix64::new(73).fill_uniform(&mut input, -scale, scale);
        input[len / 3] = scale;
        input
    }

    #[test]
    fn out_of_range_input_overflows_an_f16_phase_and_stays_in_bound_under_bf16() {
        use crate::error_analysis::{error_bound, BoundParams};
        // Max-norm 1e5 is past f16's 65 504 and well inside bf16's range.
        let (n, nt) = (4usize, 16usize);
        let (mut mv, kappa) = identity_blocks(n, nt);
        let input = max_norm_input(n * nt, 1e5);
        for dir in [OpDirection::Forward, OpDirection::Adjoint] {
            let mut exact = vec![0.0; n * nt];
            mv.set_config(PrecisionConfig::all_double());
            mv.apply_into(dir, &input, &mut exact).unwrap();
            assert!(rel_l2_error(&exact, &input) < 1e-14, "{dir}: not the identity");
            let mut out = vec![0.0; n * nt];
            // One f16 phase, all others double: an out-of-range value
            // rounds to ±∞ where that phase stores it — never a finite
            // wrong answer. Before the output, the transforms spread it
            // (∞ − ∞, 0·∞) into a NaN in every output element.
            for cfg in ["hdddd", "dhddd", "ddhdd", "dddhd"] {
                mv.set_config(cfg.parse().unwrap());
                mv.apply_into(dir, &input, &mut out).unwrap();
                assert!(out.iter().all(|v| v.is_nan()), "{cfg} {dir}: not all NaN");
            }
            // In the unpad phase it is the output itself: ±∞ exactly where
            // the exact output rounds past 65 504, finite everywhere else.
            mv.set_config("ddddh".parse().unwrap());
            mv.apply_into(dir, &input, &mut out).unwrap();
            for (&got, &want) in out.iter().zip(&exact) {
                let overflow = want.abs() >= 65520.0;
                let ok =
                    if overflow { got == want.signum() * f64::INFINITY } else { got.is_finite() };
                assert!(ok, "ddddh {dir}: {want} came out {got}");
            }
            // bf16 has f32's exponent range: finite, and inside Eq. 6.
            let cfg: PrecisionConfig = "bbbbb".parse().unwrap();
            mv.set_config(cfg);
            mv.apply_into(dir, &input, &mut out).unwrap();
            assert!(out.iter().all(|v| v.is_finite()), "bbbbb {dir}: overflowed");
            let bound = error_bound(cfg, &BoundParams::for_direction(dir, nt, n, n, 1, 1, kappa));
            let err = rel_l2_error(&out, &exact);
            assert!(err <= bound.total, "bbbbb {dir}: error {err:.3e} > bound {:.3e}", bound.total);
        }
    }

    #[test]
    fn tiny_input_underflows_an_f16_phase_and_stays_in_bound_under_bf16_and_f32() {
        use crate::error_analysis::{error_bound, BoundParams};
        // f16's smallest normal is 2⁻¹⁴ ≈ 6.1e-5, its smallest subnormal
        // 2⁻²⁴ ≈ 6.0e-8. Max-norm 1e-9 stays below half of that through
        // every phase; max-norm 1e-6 lands among the subnormals, which
        // carry only a few significant bits.
        let (n, nt) = (4usize, 16usize);
        let (mut mv, kappa) = identity_blocks(n, nt);
        for scale in [1e-9, 1e-6] {
            let input = max_norm_input(n * nt, scale);
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let mut exact = vec![0.0; n * nt];
                mv.set_config(PrecisionConfig::all_double());
                mv.apply_into(dir, &input, &mut exact).unwrap();
                assert!(rel_l2_error(&exact, &input) < 1e-14, "{dir}: not the identity");
                let mut out = vec![0.0; n * nt];
                let mut run = |cfg: &str, out: &mut [f64]| {
                    let cfg: PrecisionConfig = cfg.parse().unwrap();
                    mv.set_config(cfg);
                    mv.apply_into(dir, &input, out).unwrap();
                    let params = BoundParams::for_direction(dir, nt, n, n, 1, 1, kappa);
                    (rel_l2_error(out, &exact), error_bound(cfg, &params).total)
                };
                // Any f16 phase, alone or all five: a finite answer past
                // Eq. 6 and nothing to say so. At 1e-9 it is exact zeros
                // (relative error 1); at 1e-6 a few percent.
                for cfg in ["hdddd", "dhddd", "ddhdd", "dddhd", "ddddh", "hhhhh"] {
                    let (err, bound) = run(cfg, &mut out);
                    assert!(out.iter().all(|v| v.is_finite()), "{cfg} {dir} at {scale:e}");
                    if scale == 1e-9 {
                        assert!(out.iter().all(|&v| v == 0.0), "{cfg} {dir}: not flushed to zero");
                    } else {
                        assert!(err < 0.1, "{cfg} {dir} at {scale:e}: error {err:.3e}");
                    }
                    assert!(err > bound, "{cfg} {dir} at {scale:e}: {err:.3e} within {bound:.3e}");
                }
                // bf16 keeps f32's exponent range: inside Eq. 6 at both
                // scales, as f32 is.
                for cfg in ["bbbbb", "bdddd", "ddddb", "sdddd", "sssss"] {
                    let (err, bound) = run(cfg, &mut out);
                    assert!(err <= bound, "{cfg} {dir} at {scale:e}: {err:.3e} > {bound:.3e}");
                }
            }
        }
    }

    #[test]
    fn an_f16_inverse_over_a_bluestein_length_stays_finite_and_in_bound() {
        use crate::error_analysis::{condition_estimate, error_bound, BoundParams};
        // N_t = 67, 71, 89, 97: the transforms of length 2·N_t are
        // Bluestein plans. Before the kernel spectrum carried the inner
        // inverse's 1/m, an f16 IFFT held the m-fold product and came out
        // NaN or ∞ on unit-scale data.
        let cfg: PrecisionConfig = "dddhd".parse().unwrap();
        for nt in [67usize, 71, 89, 97] {
            let op = random_operator(1, 1, nt, nt as u64);
            let kappa = condition_estimate(&op, 1);
            let mut mv = mv(op, PrecisionConfig::all_double());
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let input = max_norm_input(nt, 1.0);
                let mut exact = vec![0.0; nt];
                mv.set_config(PrecisionConfig::all_double());
                mv.apply_into(dir, &input, &mut exact).unwrap();
                let mut out = vec![0.0; nt];
                mv.set_config(cfg);
                mv.apply_into(dir, &input, &mut out).unwrap();
                assert!(out.iter().all(|v| v.is_finite()), "nt={nt} {dir}: non-finite output");
                let params = BoundParams::for_direction(dir, nt, 1, 1, 1, 1, kappa);
                let (err, bound) = (rel_l2_error(&out, &exact), error_bound(cfg, &params).total);
                assert!(err <= bound, "nt={nt} {dir}: error {err:.3e} > bound {bound:.3e}");
            }
        }
    }

    #[test]
    fn pipeline_tracks_in_flight_workspaces() {
        let op = random_operator(2, 3, 8, 83);
        let mv = mv(op, PrecisionConfig::all_double());
        assert_eq!(mv.workspaces_in_flight(), 0);
        let m = vec![1.0; 3 * 8];
        let mut out = vec![0.0; 2 * 8];
        mv.apply_forward_into(&m, &mut out).unwrap();
        assert_eq!(mv.workspaces_in_flight(), 0, "guard returned after the apply");
        assert!(mv.workspaces_peak_in_flight() >= 1);
        assert!(mv.workspaces_pooled() <= workspace_retention_cap());
        // The shared pool's byte high-water mark: set by the first apply,
        // unchanged by an identical second one.
        let peak = mv.workspace_peak_bytes();
        assert!(peak > 0);
        mv.apply_forward_into(&m, &mut out).unwrap();
        assert_eq!(mv.workspace_peak_bytes(), peak);
    }

    /// Identity-plus-noise operator with κ(F̂) ≈ 1, suitable for budget
    /// resolution tests (the condition estimate stays well-behaved).
    fn conditioned_operator(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
        let mut rng = SplitMix64::new(seed);
        let mut col = vec![0.0; nt * nd * nm];
        let n = nd.min(nm);
        let mut noise = vec![0.0; nd * nm];
        rng.fill_uniform(&mut noise, -0.05, 0.05);
        col[..nd * nm].copy_from_slice(&noise);
        for i in 0..n {
            col[i * nm + i] += 1.0;
        }
        BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap()
    }

    #[test]
    fn builder_budget_resolves_promises_and_meets_the_bound() {
        use crate::linop::OpDirection;
        let (nd, nm, nt) = (3usize, 3usize, 16usize);
        let budget = 1e-6;
        for dir in [OpDirection::Forward, OpDirection::Adjoint] {
            let op = conditioned_operator(nd, nm, nt, 5);
            let mv = FftMatvec::builder(op).error_budget_for(dir, budget).build().unwrap();
            let choice = *mv.autotuned().expect("budget was resolved at build time");
            assert_eq!(choice.direction, dir);
            assert_eq!(choice.budget, budget);
            assert_eq!(choice.config, mv.config(), "the winner is installed");
            assert!(choice.bound.total <= budget, "promised {:.3e}", choice.bound.total);
            assert!(choice.predicted_seconds > 0.0);

            // The promise holds on real arithmetic: measured relative
            // error in the tuned direction stays under the budget.
            let mut mv = mv;
            let in_len = match dir {
                OpDirection::Forward => nm * nt,
                OpDirection::Adjoint => nd * nt,
            };
            let mut x = vec![0.0; in_len];
            SplitMix64::new(17).fill_uniform_stuffed(&mut x, -1.0, 1.0);
            let measured =
                crate::pareto::error_sweep(&mut mv, dir, &[choice.config], &x).unwrap()[0];
            assert!(
                measured <= budget,
                "{dir}: measured {measured:.3e} over the {budget:.0e} budget"
            );
        }
    }

    #[test]
    fn builder_budget_failures_are_typed_config_errors() {
        use crate::linop::ConfigError;
        let op = conditioned_operator(2, 2, 8, 9);
        let err = FftMatvec::builder(op).error_budget(0.0).build().unwrap_err();
        assert!(matches!(err, ConfigError::InvalidBudget { .. }), "got {err:?}");
        let op = conditioned_operator(2, 2, 8, 9);
        let err = FftMatvec::builder(op).error_budget(1e-200).build().unwrap_err();
        match err {
            ConfigError::BudgetUnsatisfiable { budget, floor } => {
                assert_eq!(budget, 1e-200);
                assert!(floor > budget, "the reported floor explains the rejection");
            }
            other => panic!("expected BudgetUnsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn retune_swaps_configs_and_keeps_them_on_error() {
        use crate::linop::OpDirection;
        let op = conditioned_operator(3, 3, 16, 13);
        let mut mv = FftMatvec::builder(op).error_budget(1e-13).build().unwrap();
        // 1e-13 sits under every narrow config's ≥ε_s terms at this
        // shape but above the all-double floor.
        assert!(mv.config().is_all_double());

        // A loose retune frees the configuration to go narrow; whatever
        // wins, the promise tightens to the new budget and the installed
        // config is the choice's.
        let choice = mv.retune_budget(OpDirection::Forward, 1e-2).unwrap();
        assert!(choice.bound.total <= 1e-2);
        assert_eq!(mv.config(), choice.config);
        assert_eq!(mv.autotuned().unwrap().budget, 1e-2);

        // A failed retune leaves config and last promise untouched.
        let before = mv.config();
        assert!(mv.retune_budget(OpDirection::Forward, 1e-200).is_err());
        assert_eq!(mv.config(), before);
        assert_eq!(mv.autotuned().unwrap().budget, 1e-2);

        // Retune also works on pipelines built without a budget (κ is
        // estimated on first use).
        let op = conditioned_operator(3, 3, 16, 13);
        let mut plain = FftMatvec::builder(op).build().unwrap();
        assert!(plain.autotuned().is_none());
        let choice = plain.retune_budget(OpDirection::Adjoint, 1e-6).unwrap();
        assert_eq!(choice.direction, OpDirection::Adjoint);
        assert_eq!(plain.config(), choice.config);
    }

    #[test]
    fn arc_shared_operator_and_clone_fallback() {
        let op = conditioned_operator(2, 3, 8, 21);
        let shared = Arc::new(op);
        let a = FftMatvec::builder_arc(Arc::clone(&shared)).build().unwrap();
        let b = FftMatvec::builder_arc(Arc::clone(&shared))
            .precision(PrecisionConfig::all_single())
            .build()
            .unwrap();
        // Both pipelines alias the same frequency-domain setup.
        assert!(Arc::ptr_eq(&a.operator_shared(), &b.operator_shared()));

        // into_operator with co-owners deep-copies instead of disturbing
        // them; the copy computes identically.
        let m = vec![1.0; 3 * 8];
        let via_a = a.apply_forward(&m).unwrap();
        let recovered = a.into_operator();
        let rebuilt = FftMatvec::builder(recovered).build().unwrap();
        assert_eq!(rebuilt.apply_forward(&m).unwrap(), via_a);
        let via_b = b.apply_forward(&m).unwrap(); // b is undisturbed
        assert_eq!(via_b.len(), 2 * 8);

        // Sole owner: into_operator hands back the original allocation
        // (no observable copy — behavior is identical either way).
        drop(b);
        drop(shared);
        let op = conditioned_operator(2, 3, 8, 21);
        let solo = FftMatvec::builder(op).build().unwrap();
        let _op = solo.into_operator();
    }

    #[test]
    fn pipelines_over_one_operator_share_its_narrowed_fhat() {
        // Two mixed pipelines over one `Arc`: the f32 `F̂` the first
        // apply narrows is the one the second pipeline's apply reads.
        let shared = Arc::new(conditioned_operator(2, 3, 8, 23));
        let cfg = PrecisionConfig::optimal_forward();
        let build = || FftMatvec::builder_arc(Arc::clone(&shared)).precision(cfg).build().unwrap();
        let (a, b) = (build(), build());
        let m = vec![1.0; 3 * 8];
        let ya = a.apply_forward(&m).unwrap();
        let narrowed: *const ComplexBuffer = shared.stored().buffer(Precision::Single);
        let yb = b.apply_forward(&m).unwrap();
        assert_eq!(ya, yb);
        for mv in [&a, &b] {
            let fhat32 = mv.operator().stored().buffer(Precision::Single);
            assert!(std::ptr::eq(fhat32, narrowed), "one narrowed F̂ per operator");
        }
    }

    #[test]
    fn retune_through_the_configurable_operator_trait() {
        use crate::autotune::{PhaseWeights, TierCalibration};
        use crate::error_analysis::{condition_estimate, BoundParams};
        use crate::linop::{ConfigurableOperator, OpDirection};
        // The provided `retune` on the trait works through a trait
        // object — any ConfigurableOperator realization gains budget
        // retuning for free.
        let (nd, nm, nt) = (3usize, 3usize, 8usize);
        let op = conditioned_operator(nd, nm, nt, 31);
        let kappa = condition_estimate(&op, 1);
        let mut mv = FftMatvec::builder(op).build().unwrap();
        let obj: &mut dyn ConfigurableOperator = &mut mv;
        let dir = OpDirection::Forward;
        let params = BoundParams::for_direction(dir, nt, nd, nm, 1, 1, kappa);
        let weights = PhaseWeights::for_shape(nd, nm, nt, dir);
        let mut calib = TierCalibration::new();
        let choice = obj.retune(dir, 1e-6, &params, &weights, &mut calib).unwrap();
        assert!(choice.bound.total <= 1e-6);
        assert_eq!(obj.config(), choice.config, "retune installs through set_config");
    }
}
