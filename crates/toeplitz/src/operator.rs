//! The multi-level Toeplitz realizations of [`LinearOperator`]:
//! [`NdCirculantEmbedding`] (any level count) and [`TwoLevelToeplitz`]
//! (the `L = 2` case, with the fastmat `planWhole` / `planBlock`
//! accessors) — one pipeline, two entry points.
//!
//! Both are the shared [`TieredPipeline`] over the [`PointwiseKernel`]:
//! Pad writes the input's head rows (real, padded along the innermost
//! axis only), Fft/Ifft are the real-input, head-pruned N-d transforms
//! of [`RealNdFft`], Sbgemv is the pointwise symbol multiply on the half
//! spectrum (the per-frequency blocks are 1×1 so the batched GEMV
//! degenerates to a Hadamard product), Unpad reads the output's head
//! rows. This file supplies only that kernel, the symbol resolution the
//! builders do, and the family-specific accessors; the public types
//! deref to the pipeline for everything shared (`config`, `set_config`,
//! `retune_budget`, `autotuned`, `bound_params`, the workspace and engine
//! diagnostics, `device`).
//!
//! **The head contract.** With `in_l` / `out_l` the input / output
//! extent of level `l` in the direction applied (`cols_l` / `rows_l`
//! forward, swapped for the adjoint) and `m_l` the circulant extents, an
//! apply materializes `∏_{l<L−1} in_l` rows of `m_{L−1}` reals, never
//! the `∏ m_l` grid: the engine grows the buffer one axis at a time and
//! zero-fills only the tail `[in_l, m_l)` of rows it is about to
//! transform; on the way back it keeps `out_l` of `m_l` entries per axis
//! as soon as that axis is inverted. The outer complex axes run in the
//! engine, not through [`DeviceBackend`] (the trait has no complex-FFT
//! primitive); the multiply and the tier casts do cross it.

use std::sync::Arc;

use fftmatvec_backend::{BackendError, DeviceBackend};
use fftmatvec_core::gpu::{dtype_for, DeviceSpec, KernelProfile, Phase, PhaseTimes};
use fftmatvec_core::{
    BoundParams, BuildOptions, ConfigError, ConfigurableOperator, LinearOperator, MatvecPhase,
    OpDirection, OpError, OpShape, PhaseWeights, PrecisionConfig, SpectralKernel, TieredPipeline,
    Workspace,
};
use fftmatvec_fft::{cache, PlanHandle, RealNdFft, RealPlanHandle};
use fftmatvec_numeric::{bf16, f16, ComplexBuffer, Precision, RealBuffer};

use crate::generator::{ToeplitzGenerator, MAX_LEVELS};
use crate::kernels;
use crate::symbol::ToeplitzSymbol;

/// Evaluate `$body` with `$v` bound to the typed vector inside a
/// [`RealBuffer`], whatever its tier.
macro_rules! each_tier {
    ($buf:expr, $v:ident => $body:expr) => {
        match $buf {
            RealBuffer::F16($v) => $body,
            RealBuffer::BF16($v) => $body,
            RealBuffer::F32($v) => $body,
            RealBuffer::F64($v) => $body,
        }
    };
}

/// One tier's real-input N-d FFT engine, tier-erased so the shared
/// engine bank can hold it (behind an `Arc`, as the block-triangular
/// kernel's engines are).
pub enum NdEngine {
    H(RealNdFft<f16>),
    B(RealNdFft<bf16>),
    S(RealNdFft<f32>),
    D(RealNdFft<f64>),
}

/// Evaluate `$body` with `$e` bound to the typed engine and `$r`, `$s`,
/// `$t` to the typed vectors of a same-tier (real, spectrum, stage)
/// buffer triple.
macro_rules! with_tier {
    ($engine:expr, $bufs:expr, ($e:ident, $r:ident, $s:ident, $t:ident) => $body:expr) => {
        match ($engine, $bufs) {
            (
                NdEngine::H($e),
                (RealBuffer::F16($r), ComplexBuffer::C16($s), ComplexBuffer::C16($t)),
            ) => $body,
            (
                NdEngine::B($e),
                (RealBuffer::BF16($r), ComplexBuffer::CB16($s), ComplexBuffer::CB16($t)),
            ) => $body,
            (
                NdEngine::S($e),
                (RealBuffer::F32($r), ComplexBuffer::C32($s), ComplexBuffer::C32($t)),
            ) => $body,
            (
                NdEngine::D($e),
                (RealBuffer::F64($r), ComplexBuffer::C64($s), ComplexBuffer::C64($t)),
            ) => $body,
            _ => return Err(OpError::Internal("toeplitz fft tier mismatch")),
        }
    };
}

impl NdEngine {
    /// Spectrum of the head rows in `real` into `spec` (rotated layout).
    fn forward(
        &self,
        head: &[usize],
        real: &RealBuffer,
        spec: &mut ComplexBuffer,
        stage: &mut ComplexBuffer,
    ) -> Result<(), OpError> {
        with_tier!(self, (real, spec, stage), (e, r, s, t) => e.forward(head, r, s, t));
        Ok(())
    }

    /// Head rows of the inverse transform of `spec` into `real`.
    fn inverse(
        &self,
        head: &[usize],
        spec: &mut ComplexBuffer,
        stage: &mut ComplexBuffer,
        real: &mut RealBuffer,
    ) -> Result<(), OpError> {
        with_tier!(self, (real, spec, stage), (e, r, s, t) => e.inverse(head, s, t, r));
        Ok(())
    }
}

/// The three buffers one transform direction works in, all in one tier:
/// the padded real rows, the half spectrum, and the engine's staging
/// buffer.
struct TierStage {
    real: RealBuffer,
    spec: ComplexBuffer,
    stage: ComplexBuffer,
}

impl TierStage {
    /// All-empty; `Vec::new()` does not allocate.
    fn empty() -> Self {
        TierStage {
            real: RealBuffer::F64(Vec::new()),
            spec: ComplexBuffer::C64(Vec::new()),
            stage: ComplexBuffer::C64(Vec::new()),
        }
    }

    fn bytes(&self) -> usize {
        self.real.bytes() + self.spec.bytes() + self.stage.bytes()
    }
}

/// One apply's worth of buffers. Under a fixed configuration each buffer
/// keeps a stable tier and length across applies (lengths are the
/// symbol's, the larger of the two directions' needs), so
/// `reset_for_overwrite` reuses the
/// allocation every time: `fwd` is the Fft tier's triple, `mid` the
/// spectrum in the Sbgemv tier (materialized only when that tier differs
/// from Fft's), `inv` the Ifft tier's triple (only when Ifft differs from
/// its predecessor; its `spec` only when Ifft differs from Sbgemv).
pub struct GridWorkspace {
    fwd: TierStage,
    mid: ComplexBuffer,
    inv: TierStage,
}

impl Default for GridWorkspace {
    fn default() -> Self {
        GridWorkspace {
            fwd: TierStage::empty(),
            mid: ComplexBuffer::C64(Vec::new()),
            inv: TierStage::empty(),
        }
    }
}

impl Workspace for GridWorkspace {
    fn bytes(&self) -> usize {
        self.fwd.bytes() + self.mid.bytes() + self.inv.bytes()
    }
}

/// The multi-level symbol apply: a pointwise multiply by the circulant
/// embedding's spectrum. Holds the immutable symbol behind an `Arc`, so
/// precision variants of one operator share the spectrum.
#[derive(Clone)]
pub struct PointwiseKernel {
    sym: Arc<ToeplitzSymbol>,
}

impl PointwiseKernel {
    /// Phases 2–4 on the head rows already written to `ws.fwd.real` (Fft
    /// tier): forward transform over the outer-axis box `in_head` the
    /// input occupies, multiply by the symbol (conjugated for the
    /// adjoint) through the device backend's cast and Hadamard
    /// primitives, inverse transform on the box `out_head` the output
    /// reads. Returns the real buffer holding the output's head rows.
    ///
    /// Each role has a dedicated buffer — the Ifft operand must sit in
    /// an Ifft-tier buffer with a same-tier stage and real partner — so
    /// tiers stay stable across applies under a fixed configuration
    /// (zero steady-state allocation).
    fn transform<'w>(
        &self,
        pipe: &TieredPipeline<Self>,
        in_head: &[usize],
        out_head: &[usize],
        conj: bool,
        ws: &'w mut GridWorkspace,
    ) -> Result<&'w RealBuffer, OpError> {
        let (cfg, device) = (pipe.config(), pipe.device());
        let p_fft = cfg.phase(MatvecPhase::Fft);
        let p_gemv = cfg.phase(MatvecPhase::Sbgemv);
        let p_ifft = cfg.phase(MatvecPhase::Ifft);
        let n = self.sym.spectrum_len();
        let (real_len, stage_len) = self.sym.buffer_lens();
        let GridWorkspace { fwd, mid, inv } = ws;

        fwd.spec.reset_for_overwrite(p_fft, n);
        fwd.stage.reset_for_overwrite(p_fft, stage_len);
        pipe.engine(p_fft)?.forward(in_head, &fwd.real, &mut fwd.spec, &mut fwd.stage)?;

        let use_mid = p_gemv != p_fft;
        if use_mid {
            device.cast_complex(&fwd.spec, p_gemv, mid)?;
        }
        let io = if use_mid { &mut *mid } else { &mut fwd.spec };
        device.pointwise_multiply(io, self.sym.spectrum().buffer(p_gemv), conj)?;

        let (spec, stage, real) = if p_ifft != p_gemv {
            device.cast_complex(io, p_ifft, &mut inv.spec)?;
            (&mut inv.spec, &mut inv.stage, &mut inv.real)
        } else if use_mid {
            (mid, &mut inv.stage, &mut inv.real)
        } else {
            (&mut fwd.spec, &mut fwd.stage, &mut fwd.real)
        };
        stage.reset_for_overwrite(p_ifft, stage_len);
        real.reset_for_overwrite(p_ifft, real_len);
        pipe.engine(p_ifft)?.inverse(out_head, spec, stage, real)?;
        Ok(real)
    }

    /// pad → FFTN → ⊙ĉ → IFFTN → extract on the head rows. The embed
    /// rounds through the Pad tier (cast fused into the row write); the
    /// extraction rounds through the Unpad tier into the always-double
    /// output.
    fn run_column(
        &self,
        pipe: &TieredPipeline<Self>,
        dir: OpDirection,
        input: &[f64],
        out: &mut [f64],
        ws: &mut GridWorkspace,
    ) -> Result<(), OpError> {
        let levels = self.sym.generator().levels();
        let outer = levels.len() - 1;
        let mut in_ext = [0usize; MAX_LEVELS];
        let mut out_ext = [0usize; MAX_LEVELS];
        for (l, lv) in levels.iter().enumerate() {
            (in_ext[l], out_ext[l]) = match dir {
                OpDirection::Forward => (lv.cols, lv.rows),
                OpDirection::Adjoint => (lv.rows, lv.cols),
            };
        }
        let m = self.sym.work_dims()[outer];
        let cfg = pipe.config();
        let p_pad = cfg.phase(MatvecPhase::Pad);
        let p_fft = cfg.phase(MatvecPhase::Fft);
        let p_unpad = cfg.phase(MatvecPhase::Unpad);

        ws.fwd.real.reset_for_overwrite(p_fft, self.sym.buffer_lens().0);
        each_tier!(&mut ws.fwd.real, v => kernels::embed_head(in_ext[outer], m, input, p_pad, v));
        let conj = matches!(dir, OpDirection::Adjoint);
        let rows = self.transform(pipe, &in_ext[..outer], &out_ext[..outer], conj, ws)?;
        each_tier!(rows, v => kernels::extract_head(out_ext[outer], m, v, p_unpad, out));
        Ok(())
    }
}

impl SpectralKernel for PointwiseKernel {
    type Engine = Arc<NdEngine>;
    type Workspace = GridWorkspace;

    fn shape(&self) -> OpShape {
        OpShape::new(self.sym.generator().rows(), self.sym.generator().cols())
    }

    /// Per-axis plans always resolve through the process-wide cache, so
    /// rebuilds only re-link shared twiddle tables. The engine computes
    /// on the host whatever the device (see the module docs).
    fn plan(
        &self,
        _device: &dyn DeviceBackend,
        p: Precision,
    ) -> Result<Arc<NdEngine>, BackendError> {
        let dims = self.sym.work_dims();
        Ok(Arc::new(match p {
            Precision::Half => NdEngine::H(RealNdFft::new(dims)),
            Precision::BFloat16 => NdEngine::B(RealNdFft::new(dims)),
            Precision::Single => NdEngine::S(RealNdFft::new(dims)),
            Precision::Double => NdEngine::D(RealNdFft::new(dims)),
        }))
    }

    /// The panel's columns one after another, each `run_column` on the
    /// same workspace: a column's bits are its solo apply's.
    fn run(
        &self,
        pipe: &TieredPipeline<Self>,
        dir: OpDirection,
        inputs: &[f64],
        outs: &mut [f64],
        _cols: usize,
        ws: &mut GridWorkspace,
    ) -> Result<(), OpError> {
        let (in_len, out_len) = self.shape().io_lens(dir);
        for (input, out) in inputs.chunks_exact(in_len).zip(outs.chunks_exact_mut(out_len)) {
            self.run_column(pipe, dir, input, out, ws)?;
        }
        Ok(())
    }

    /// The Sbgemv tier's spectrum cast (applies stay allocation-free).
    fn warm(&self, cfg: PrecisionConfig) {
        self.sym.spectrum().warm(cfg.phase(MatvecPhase::Sbgemv));
    }

    fn condition_estimate(&self) -> f64 {
        self.sym.condition_estimate()
    }

    /// The N-d transform depth is `log₂(∏ m_l)` (pruning skips zeros, it
    /// does not shorten any transform), and the pointwise Sbgemv reduces
    /// over a single element (`n_local = 1`).
    fn bound_params(&self, dir: OpDirection, kappa: f64) -> BoundParams {
        BoundParams::for_direction(dir, self.sym.embed_total(), 1, 1, 1, 1, kappa)
    }

    fn phase_weights(&self, dir: OpDirection) -> PhaseWeights {
        PhaseWeights::for_shape(1, 1, self.sym.embed_total(), dir)
    }

    /// What one apply launches: an embed stream writing the input's head
    /// rows, one real-FFT launch over those rows and one complex launch
    /// per outer axis over the rows that axis pass transforms, the
    /// pointwise multiply over the half spectrum (read spectrum + symbol,
    /// write spectrum) with the tier-boundary casts charged to it as the
    /// paper charges the reorders to SBGEMV, the mirrored launches over
    /// the output's head box, and the extract stream.
    fn modeled_phases(
        &self,
        cfg: PrecisionConfig,
        dir: OpDirection,
        dev: &DeviceSpec,
    ) -> PhaseTimes {
        let (in_len, out_len) = self.shape().io_lens(dir);
        let dims = self.sym.work_dims();
        let (&m, outer) = dims.split_last().expect("a symbol has at least one level");
        let levels = self.sym.generator().levels();
        // Outer-axis head box of the input side (`true`) or the output
        // side of this direction; iterators, not vectors, because a
        // simulated device evaluates this once per apply.
        let head = |input: bool| {
            let forward = matches!(dir, OpDirection::Forward);
            levels[..outer.len()]
                .iter()
                .map(move |lv| if input == forward { lv.cols } else { lv.rows })
        };
        let [p_pad, p_fft, p_gemv, p_ifft, p_unpad] = MatvecPhase::ALL.map(|ph| cfg.phase(ph));
        let rows =
            |input, p: Precision| (head(input).product::<usize>() * m * p.real_bytes()) as f64;
        let spectrum = |p: Precision| (self.sym.spectrum_len() * p.complex_bytes()) as f64;
        let stream = |name, p, read, written| {
            KernelProfile::streaming(name, dtype_for(true, p), read, written).estimate_time(dev)
        };
        let cast = |name, from: Precision, to: Precision| {
            if from == to {
                0.0
            } else {
                stream(name, to, spectrum(from), spectrum(to))
            }
        };
        // Axis `l` runs over `h · ∏_{l<j<L−1} m_j · ∏_{j<l} head_j` rows
        // in either direction: the live length divided by the head
        // extent going in, multiplied by the full extent coming out.
        let fftn = |name, p, input| -> f64 {
            let batch: usize = head(input).product();
            let mut time = KernelProfile::real_fft(name, p, m, batch).estimate_time(dev);
            let mut len = batch * (m / 2 + 1);
            for (&m_l, head_l) in outer.iter().zip(head(input)).rev() {
                let axis = KernelProfile::fft(name, dtype_for(true, p), m_l, len / head_l);
                time += axis.estimate_time(dev);
                len = len / head_l * m_l;
            }
            time
        };
        let mut times = PhaseTimes::new();
        times.add(Phase::Pad, stream("embed", p_pad, (in_len * 8) as f64, rows(true, p_fft)));
        times.add(Phase::Fft, fftn("fftn", p_fft, true));
        let multiply = stream("pointwise", p_gemv, 2.0 * spectrum(p_gemv), spectrum(p_gemv));
        let casts = cast("cast_in", p_fft, p_gemv) + cast("cast_out", p_gemv, p_ifft);
        times.add(Phase::Sbgemv, multiply + casts);
        times.add(Phase::Ifft, fftn("ifftn", p_ifft, false));
        times.add(
            Phase::Unpad,
            stream("extract", p_unpad, rows(false, p_ifft), (out_len * 8) as f64),
        );
        times
    }
}

// ---------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------

enum SymbolSource {
    Gen(ToeplitzGenerator),
    Shared(Arc<ToeplitzSymbol>),
}

impl SymbolSource {
    /// Compute or adopt the symbol and build the pipeline over it.
    fn build(
        self,
        opts: BuildOptions,
        two_level_only: bool,
    ) -> Result<TieredPipeline<PointwiseKernel>, ConfigError> {
        let levels = match &self {
            SymbolSource::Gen(gen) => gen.levels().len(),
            SymbolSource::Shared(sym) => sym.generator().levels().len(),
        };
        if two_level_only && levels != 2 {
            return Err(ConfigError::LevelCount {
                what: "TwoLevelToeplitz",
                got: levels,
                allowed: (2, 2),
            });
        }
        let sym = match self {
            SymbolSource::Gen(gen) => Arc::new(ToeplitzSymbol::full(gen)?),
            SymbolSource::Shared(sym) => sym,
        };
        TieredPipeline::build(PointwiseKernel { sym }, opts)
    }
}

/// Builder for [`NdCirculantEmbedding`].
pub struct NdCirculantEmbeddingBuilder {
    source: SymbolSource,
    opts: BuildOptions,
}

impl NdCirculantEmbeddingBuilder {
    fftmatvec_core::spectral_builder_setters!(opts);

    /// Build the operator: compute (or adopt) the symbol spectrum, warm
    /// the configured FFT engines through the process-wide plan cache,
    /// and — with an error budget set — run the autotune pass.
    pub fn build(self) -> Result<NdCirculantEmbedding, ConfigError> {
        Ok(NdCirculantEmbedding(self.source.build(self.opts, false)?))
    }
}

/// Builder for [`TwoLevelToeplitz`].
pub struct TwoLevelToeplitzBuilder {
    source: SymbolSource,
    opts: BuildOptions,
}

impl TwoLevelToeplitzBuilder {
    fftmatvec_core::spectral_builder_setters!(opts);

    /// Build the operator (see
    /// [`NdCirculantEmbeddingBuilder::build`]).
    pub fn build(self) -> Result<TwoLevelToeplitz, ConfigError> {
        Ok(TwoLevelToeplitz(self.source.build(self.opts, true)?))
    }
}

// ---------------------------------------------------------------------
// Public operator types
// ---------------------------------------------------------------------

/// What both public types share beyond the pipeline they deref to: the
/// symbol accessors, the builder entry points, and the operator traits
/// (forwarded so the wrappers themselves can be registered and swept).
macro_rules! operator_common {
    ($ty:ident, $builder:ident) => {
        impl $ty {
            /// Start building over a generator (computes the symbol
            /// spectrum at build time).
            pub fn builder(gen: ToeplitzGenerator) -> $builder {
                $builder { source: SymbolSource::Gen(gen), opts: BuildOptions::default() }
            }

            /// Start building over an already-computed shared symbol —
            /// how a service builds per-configuration variants of one
            /// registered operator without recomputing spectra.
            pub fn builder_arc(sym: Arc<ToeplitzSymbol>) -> $builder {
                $builder { source: SymbolSource::Shared(sym), opts: BuildOptions::default() }
            }

            /// The shared symbol — build further precision variants over
            /// it without recomputing the spectrum.
            pub fn symbol_shared(&self) -> Arc<ToeplitzSymbol> {
                Arc::clone(&self.0.kernel().sym)
            }

            /// The generator this operator realizes.
            pub fn generator(&self) -> &ToeplitzGenerator {
                self.0.kernel().sym.generator()
            }
        }

        impl std::ops::Deref for $ty {
            type Target = TieredPipeline<PointwiseKernel>;
            fn deref(&self) -> &Self::Target {
                &self.0
            }
        }

        impl std::ops::DerefMut for $ty {
            fn deref_mut(&mut self) -> &mut Self::Target {
                &mut self.0
            }
        }

        impl LinearOperator for $ty {
            fn shape(&self) -> OpShape {
                self.0.shape()
            }
            fn apply_forward_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
                self.0.apply_forward_into(input, out)
            }
            fn apply_adjoint_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
                self.0.apply_adjoint_into(input, out)
            }
            fn apply_many_into(
                &self,
                dir: OpDirection,
                inputs: &[f64],
                outputs: &mut [f64],
            ) -> Result<(), OpError> {
                self.0.apply_many_into(dir, inputs, outputs)
            }
        }

        impl ConfigurableOperator for $ty {
            fn config(&self) -> PrecisionConfig {
                self.0.config()
            }
            fn set_config(&mut self, cfg: PrecisionConfig) {
                self.0.set_config(cfg);
            }
        }
    };
}

/// Multi-level Toeplitz operator realized by multi-level circulant
/// embedding: any level count `1 ≤ L ≤` [`MAX_LEVELS`], rectangular
/// (non-square) levels included. `apply_forward` is
/// `extract ∘ IFFTN ∘ (⊙ ĉ) ∘ FFTN ∘ pad` with real, head-pruned
/// transforms; the adjoint conjugates the symbol. Derefs to the shared
/// [`TieredPipeline`].
pub struct NdCirculantEmbedding(TieredPipeline<PointwiseKernel>);

operator_common!(NdCirculantEmbedding, NdCirculantEmbeddingBuilder);

/// Two-level Toeplitz operator (block-Toeplitz with Toeplitz blocks —
/// the EM-scattering / acoustics / MRI system-matrix case): the same
/// pipeline as [`NdCirculantEmbedding`] at `L = 2`, plus the fastmat
/// nested-plan accessors. Derefs to the shared [`TieredPipeline`].
pub struct TwoLevelToeplitz(TieredPipeline<PointwiseKernel>);

operator_common!(TwoLevelToeplitz, TwoLevelToeplitzBuilder);

/// Unwrap to the shared pipeline — how the service registry hands a
/// built operator to its family-generic tunable registration.
impl From<TwoLevelToeplitz> for TieredPipeline<PointwiseKernel> {
    fn from(op: TwoLevelToeplitz) -> Self {
        op.0
    }
}

impl TwoLevelToeplitz {
    /// The resident double engine, when the configuration has one.
    fn double_engine(&self) -> Option<&RealNdFft<f64>> {
        match self.0.resident_engine(Precision::Double).map(|e| &**e) {
            Some(NdEngine::D(engine)) => Some(engine),
            _ => None,
        }
    }

    /// The shared double-precision plan handle for the **outer** level's
    /// complex transform (fastmat's `planWhole`): taken from the resident
    /// double engine when the configuration has one, else resolved
    /// through the process-wide cache — either way, handles for the same
    /// length compare pointer-equal across every operator and pipeline in
    /// the process.
    pub fn plan_whole(&self) -> PlanHandle<f64> {
        match self.double_engine() {
            Some(engine) => engine.axis_plan(0).clone(),
            None => cache::complex_plan(self.0.kernel().sym.work_dims()[0]),
        }
    }

    /// The shared double-precision plan handle for the **inner** level's
    /// transform (fastmat's `planBlock`): a real plan of the inner
    /// circulant length, whose half-length complex plan is shared through
    /// the cache as well.
    pub fn plan_block(&self) -> RealPlanHandle<f64> {
        match self.double_engine() {
            Some(engine) => engine.inner_plan().clone(),
            None => cache::real_plan(self.0.kernel().sym.work_dims()[1]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::vecmath::rel_l2_error;
    use fftmatvec_numeric::SplitMix64;

    fn random_gen(levels: &[(usize, usize)], seed: u64) -> ToeplitzGenerator {
        let diags: usize = levels.iter().map(|&(r, c)| r + c - 1).product();
        let mut rng = SplitMix64::new(seed);
        let mut d = vec![0.0; diags];
        rng.fill_uniform(&mut d, -1.0, 1.0);
        // Lift the main diagonal so the embedding spectrum stays well
        // conditioned (κ near 1 keeps Eq. 6 budgets meaningful).
        let mut main = 0usize;
        let mut stride = 1usize;
        for &(r, c) in levels.iter().rev() {
            main += (c - 1) * stride;
            stride *= r + c - 1;
        }
        d[main] += 4.0;
        ToeplitzGenerator::new(levels, d).unwrap()
    }

    fn dense_apply(gen: &ToeplitzGenerator, dir: OpDirection, x: &[f64]) -> Vec<f64> {
        let dense = gen.dense();
        let (rows, cols) = (gen.rows(), gen.cols());
        match dir {
            OpDirection::Forward => {
                (0..rows).map(|i| (0..cols).map(|j| dense[i * cols + j] * x[j]).sum()).collect()
            }
            OpDirection::Adjoint => {
                (0..cols).map(|j| (0..rows).map(|i| dense[i * cols + j] * x[i]).sum()).collect()
            }
        }
    }

    fn random_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut v = vec![0.0; n];
        rng.fill_uniform(&mut v, -1.0, 1.0);
        v
    }

    #[test]
    fn full_embedding_matches_dense_in_both_directions() {
        for levels in [
            &[(3usize, 3usize)][..],
            &[(3, 4), (5, 2)],
            &[(2, 2), (3, 3), (2, 4)],
            &[(1, 6), (4, 1)],
        ] {
            let gen = random_gen(levels, 7);
            let op = NdCirculantEmbedding::builder(gen.clone()).build().unwrap();
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let (in_len, out_len) = op.shape().io_lens(dir);
                let x = random_vec(in_len, 21);
                let mut y = vec![0.0; out_len];
                op.apply_into(dir, &x, &mut y).unwrap();
                let want = dense_apply(&gen, dir, &x);
                assert!(
                    rel_l2_error(&want, &y) < 1e-12,
                    "levels {levels:?} {dir}: {}",
                    rel_l2_error(&want, &y)
                );
            }
        }
    }

    #[test]
    fn two_level_matches_dense_and_nd_on_odd_and_nonsquare_shapes() {
        // Odd block extents and rectangular levels — the regression
        // shapes: embedding slack on both axes, rows ≠ cols, so the
        // forward and adjoint head boxes differ.
        for (outer, inner) in
            [((3, 3), (5, 5)), ((4, 2), (3, 7)), ((2, 5), (6, 3)), ((1, 4), (5, 1))]
        {
            let gen = random_gen(&[outer, inner], 11);
            let two = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
            let nd = NdCirculantEmbedding::builder(gen.clone()).build().unwrap();
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let (in_len, out_len) = two.shape().io_lens(dir);
                let x = random_vec(in_len, 31);
                let mut y2 = vec![0.0; out_len];
                let mut yn = vec![0.0; out_len];
                two.apply_into(dir, &x, &mut y2).unwrap();
                nd.apply_into(dir, &x, &mut yn).unwrap();
                let want = dense_apply(&gen, dir, &x);
                assert!(rel_l2_error(&want, &y2) < 1e-12, "vs dense {outer:?}/{inner:?} {dir}");
                // One pipeline behind both entry points: same bits.
                assert_eq!(y2, yn, "two-level vs N-d {outer:?}/{inner:?} {dir}");
            }
        }
    }

    #[test]
    fn mixed_tier_configs_track_dense_within_documented_budgets() {
        let gen = random_gen(&[(4, 4), (6, 6)], 13);
        let sym = Arc::new(ToeplitzSymbol::full(gen.clone()).unwrap());
        for cfg in [
            PrecisionConfig::all_double(),
            PrecisionConfig::all_single(),
            "dssdd".parse().unwrap(),
            "shhsd".parse().unwrap(),
            "dbbdd".parse().unwrap(),
        ] {
            let op =
                NdCirculantEmbedding::builder_arc(Arc::clone(&sym)).precision(cfg).build().unwrap();
            let budget = crate::tier_rel_budget(crate::narrowest_tier(cfg));
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let (in_len, out_len) = op.shape().io_lens(dir);
                let x = random_vec(in_len, 41);
                let mut y = vec![0.0; out_len];
                op.apply_into(dir, &x, &mut y).unwrap();
                let want = dense_apply(&gen, dir, &x);
                let err = rel_l2_error(&want, &y);
                assert!(err < budget, "{cfg} {dir}: err {err} over budget {budget}");
            }
        }
    }

    #[test]
    fn non_finite_input_is_never_laundered_on_any_fft_tier() {
        // One poisoned input element must reach the output as a
        // non-finite value: the real transforms read only the real part
        // of the DC and Nyquist bins, and pruning skips rows — neither
        // may drop the poison.
        let gen = random_gen(&[(3, 4), (5, 3)], 17);
        for code in ["ddddd", "dssdd", "dhhdd", "dbbdd"] {
            let op = TwoLevelToeplitz::builder(gen.clone())
                .precision(code.parse().unwrap())
                .build()
                .unwrap();
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let (in_len, out_len) = op.shape().io_lens(dir);
                for poison in [f64::NAN, f64::INFINITY] {
                    for at in [0, in_len / 2, in_len - 1] {
                        let mut x = random_vec(in_len, 43);
                        x[at] = poison;
                        let mut y = vec![0.0; out_len];
                        op.apply_into(dir, &x, &mut y).unwrap();
                        assert!(
                            y.iter().any(|v| !v.is_finite()),
                            "{code} {dir}: {poison} at {at} came out finite"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn into_and_allocating_paths_agree_bitwise() {
        let gen = random_gen(&[(3, 4), (5, 3)], 19);
        let op = TwoLevelToeplitz::builder(gen).build().unwrap();
        let x = random_vec(op.shape().cols, 51);
        let mut y = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y).unwrap();
        assert_eq!(op.apply_forward(&x).unwrap(), y);
    }

    #[test]
    fn typed_errors_on_bad_lengths() {
        let gen = random_gen(&[(2, 3), (3, 2)], 23);
        let op = TwoLevelToeplitz::builder(gen).build().unwrap();
        let mut y = vec![0.0; op.shape().rows];
        assert!(matches!(
            op.apply_forward_into(&[0.0; 3], &mut y),
            Err(OpError::InputLength { .. })
        ));
        let x = vec![0.0; op.shape().cols];
        assert!(matches!(
            op.apply_forward_into(&x, &mut [0.0; 2]),
            Err(OpError::OutputLength { .. })
        ));
    }

    #[test]
    fn set_config_keeps_surviving_engines_and_swaps_results_consistently() {
        let gen = random_gen(&[(4, 4), (5, 5)], 29);
        let mut op = TwoLevelToeplitz::builder(gen.clone())
            .precision(PrecisionConfig::all_double())
            .build()
            .unwrap();
        let x = random_vec(op.shape().cols, 61);
        let mut y = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y).unwrap();
        let (d, s) = (Precision::Double, Precision::Single);
        let d_engine = Arc::clone(op.resident_engine(d).expect("d engine resident"));
        // dssdd keeps the double Ifft engine resident.
        op.set_config("dssdd".parse().unwrap());
        assert!(Arc::ptr_eq(op.resident_engine(d).unwrap(), &d_engine), "d engine kept");
        assert!(op.resident_engine(s).is_some());
        let mut y2 = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y2).unwrap();
        assert!(rel_l2_error(&y, &y2) < crate::tier_rel_budget(Precision::Single));
        // Back to all-double: single engine dropped, double still the same.
        op.set_config(PrecisionConfig::all_double());
        assert!(op.resident_engine(s).is_none());
        assert!(Arc::ptr_eq(op.resident_engine(d).unwrap(), &d_engine), "d engine kept");
        let mut y3 = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y3).unwrap();
        assert_eq!(y, y3);
    }

    #[test]
    fn nested_plans_share_through_the_process_cache() {
        let gen = random_gen(&[(4, 4), (8, 8)], 31);
        let a = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
        // A single-precision variant has no resident double engine: its
        // handles come straight from the cache and are the same Arcs.
        let b = TwoLevelToeplitz::builder(gen.clone())
            .precision(PrecisionConfig::all_single())
            .build()
            .unwrap();
        assert!(Arc::ptr_eq(&a.plan_block(), &b.plan_block()));
        assert!(Arc::ptr_eq(&a.plan_whole(), &b.plan_whole()));
        // planBlock is the real plan of the inner circulant length — the
        // plan a 1-level operator over that length runs — and planWhole
        // the complex plan of the outer one.
        let inner = NdCirculantEmbedding::builder(random_gen(&[(8, 8)], 33)).build().unwrap();
        let _ = inner;
        assert!(Arc::ptr_eq(&a.plan_block(), &cache::real_plan::<f64>(16)));
        assert!(Arc::ptr_eq(&a.plan_whole(), &cache::complex_plan::<f64>(8)));
    }

    #[test]
    fn workspace_peak_is_the_pruned_real_footprint() {
        // 8×8 blocks of 8×8: m = 16 × 16, h = 9. An all-double apply
        // holds 8 padded real rows, the 8 × 9 stage and the 9 × 16 half
        // spectrum — not two 16 × 16 complex grids.
        let gen = random_gen(&[(8, 8), (8, 8)], 37);
        let op = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
        let x = random_vec(op.shape().cols, 71);
        let mut y = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y).unwrap();
        op.apply_adjoint_into(&x, &mut y).unwrap();
        assert_eq!(op.workspace_peak_bytes(), 8 * 16 * 8 + 8 * 9 * 16 + 9 * 16 * 16);
        assert_eq!(op.symbol_shared().spectrum_len(), 9 * 16);
        // Rectangular levels: both directions share one workspace sized
        // for the taller head, so the peak does not depend on the order.
        let gen = random_gen(&[(3, 6), (4, 4)], 39);
        let (m1, m2, h) = (8, 8, 5);
        let op = NdCirculantEmbedding::builder(gen).build().unwrap();
        op.apply_forward(&random_vec(op.shape().cols, 73)).unwrap();
        let want = 6 * m2 * 8 + 6 * h * 16 + h * m1 * 16;
        assert_eq!(op.workspace_peak_bytes(), want);
        op.apply_adjoint(&random_vec(op.shape().rows, 75)).unwrap();
        assert_eq!(op.workspace_peak_bytes(), want);
    }

    #[test]
    fn budget_build_and_retune_restore_on_error() {
        let gen = random_gen(&[(4, 4), (4, 4)], 41);
        let mut op = TwoLevelToeplitz::builder(gen.clone()).error_budget(1e-6).build().unwrap();
        let choice = *op.autotuned().unwrap();
        assert!(choice.bound.total <= 1e-6);
        assert_eq!(op.config(), choice.config);
        // Invalid budget: error, config untouched.
        let before = op.config();
        assert!(matches!(
            op.retune_budget(OpDirection::Forward, -1.0),
            Err(OpError::Config(ConfigError::InvalidBudget { .. }))
        ));
        assert_eq!(op.config(), before);
        // Unsatisfiable budget: error, config untouched.
        assert!(matches!(
            op.retune_budget(OpDirection::Forward, 1e-300),
            Err(OpError::Config(ConfigError::BudgetUnsatisfiable { .. }))
        ));
        assert_eq!(op.config(), before);
        // Budget-built operators stay correct.
        let x = random_vec(op.shape().cols, 81);
        let y = op.apply_forward(&x).unwrap();
        let want = dense_apply(&gen, OpDirection::Forward, &x);
        assert!(rel_l2_error(&want, &y) < 1e-5);
    }

    #[test]
    fn builder_rejects_mismatched_paths_and_level_counts() {
        let g1 = random_gen(&[(3, 3)], 43);
        let err = TwoLevelToeplitz::builder(g1.clone()).build().err();
        let want = ConfigError::LevelCount { what: "TwoLevelToeplitz", got: 1, allowed: (2, 2) };
        assert_eq!(err, Some(want));
        // A shared symbol is checked the same way.
        let one_level = Arc::new(ToeplitzSymbol::full(g1).unwrap());
        assert!(matches!(
            TwoLevelToeplitz::builder_arc(Arc::clone(&one_level)).build(),
            Err(ConfigError::LevelCount { got: 1, .. })
        ));
        assert!(NdCirculantEmbedding::builder_arc(one_level).build().is_ok());
        // Sharing a two-level symbol shares the spectrum.
        let g2 = random_gen(&[(3, 3), (4, 4)], 47);
        let sym = Arc::new(ToeplitzSymbol::full(g2).unwrap());
        let op = TwoLevelToeplitz::builder_arc(Arc::clone(&sym)).build().unwrap();
        assert!(Arc::ptr_eq(&op.symbol_shared(), &sym));
    }

    #[test]
    fn variants_over_one_symbol_share_its_narrowed_spectrum() {
        // Two mixed variants over one `Arc`: the f32 spectrum the first
        // build narrows is the one both variants' applies multiply by.
        let gen = random_gen(&[(3, 3), (4, 4)], 57);
        let sym = Arc::new(ToeplitzSymbol::full(gen).unwrap());
        let cfg = PrecisionConfig::optimal_forward();
        let build = || TwoLevelToeplitz::builder_arc(Arc::clone(&sym)).precision(cfg).build();
        let (a, b) = (build().unwrap(), build().unwrap());
        let x = random_vec(a.shape().cols, 97);
        assert_eq!(a.apply_forward(&x).unwrap(), b.apply_forward(&x).unwrap());
        let narrowed = sym.spectrum().buffer(Precision::Single);
        for op in [&a, &b] {
            let spectrum = op.kernel().sym.spectrum().buffer(Precision::Single);
            assert!(std::ptr::eq(spectrum, narrowed), "one narrowed symbol per operator");
        }
    }

    #[test]
    fn batched_apply_matches_loop_of_singles() {
        let gen = random_gen(&[(3, 3), (4, 4)], 53);
        let op = TwoLevelToeplitz::builder(gen).build().unwrap();
        let (cols, rows) = (op.shape().cols, op.shape().rows);
        let batch = 5;
        let xs = random_vec(cols * batch, 91);
        let mut ys = vec![0.0; rows * batch];
        op.apply_many_into(OpDirection::Forward, &xs, &mut ys).unwrap();
        for b in 0..batch {
            let y = op.apply_forward(&xs[b * cols..(b + 1) * cols]).unwrap();
            assert_eq!(&ys[b * rows..(b + 1) * rows], &y[..]);
        }
        // Ragged batches are typed errors.
        assert!(matches!(
            op.apply_many_into(OpDirection::Forward, &xs[..cols + 1], &mut ys),
            Err(OpError::RaggedBatch { .. })
        ));
    }
}
