//! The multi-level Toeplitz realizations of [`LinearOperator`]:
//! [`NdCirculantEmbedding`] (any level count, full circulant grid) and
//! [`TwoLevelToeplitz`] (the `L = 2` case, with the optional
//! memory-optimized split-FFT path).
//!
//! Both are the shared [`TieredPipeline`] over the [`PointwiseKernel`]:
//! Pad is the grid embedding, Fft/Ifft the N-d complex transforms,
//! Sbgemv the pointwise symbol multiply (the per-frequency blocks are
//! 1×1 so the batched GEMV degenerates to a Hadamard product), Unpad the
//! head extraction. This file supplies only that kernel, the symbol
//! resolution the builders do, and the family-specific accessors; the
//! public types deref to the pipeline for everything shared (`config`,
//! `set_config`, `retune_budget`, `autotuned`, `bound_params`, the
//! workspace and engine diagnostics, `device`).

use std::sync::Arc;

use fftmatvec_backend::{BackendError, DeviceBackend};
use fftmatvec_core::gpu::{dtype_for, DeviceSpec, KernelProfile, Phase, PhaseTimes};
use fftmatvec_core::{
    BoundParams, BuildOptions, ConfigError, ConfigurableOperator, LinearOperator, MatvecPhase,
    OpDirection, OpError, OpShape, PhaseWeights, PrecisionConfig, SpectralKernel, TieredPipeline,
    Workspace,
};
use fftmatvec_fft::{cache, FftDirection, NdFft, PlanHandle};
use fftmatvec_numeric::{bf16, f16, ComplexBuffer, Precision};

use crate::generator::{ToeplitzGenerator, MAX_LEVELS};
use crate::kernels;
use crate::symbol::{SpectraSet, TierSpectra, ToeplitzSymbol};

/// Evaluate `$body` with `$v` bound to the typed vector inside a
/// [`ComplexBuffer`], whatever its tier.
macro_rules! each_tier {
    ($buf:expr, $v:ident => $body:expr) => {
        match $buf {
            ComplexBuffer::C16($v) => $body,
            ComplexBuffer::CB16($v) => $body,
            ComplexBuffer::C32($v) => $body,
            ComplexBuffer::C64($v) => $body,
        }
    };
}

/// One tier's N-d complex FFT engine, tier-erased so the shared engine
/// bank can hold it.
pub enum NdEngine {
    H(NdFft<f16>),
    B(NdFft<bf16>),
    S(NdFft<f32>),
    D(NdFft<f64>),
}

impl NdEngine {
    /// Transform `data` in place along every axis; `partner` is the
    /// same-tier rotation buffer.
    fn process(
        &self,
        data: &mut ComplexBuffer,
        partner: &mut ComplexBuffer,
        dir: FftDirection,
    ) -> Result<(), OpError> {
        match (self, data, partner) {
            (NdEngine::H(e), ComplexBuffer::C16(x), ComplexBuffer::C16(y)) => e.process(x, y, dir),
            (NdEngine::B(e), ComplexBuffer::CB16(x), ComplexBuffer::CB16(y)) => {
                e.process(x, y, dir)
            }
            (NdEngine::S(e), ComplexBuffer::C32(x), ComplexBuffer::C32(y)) => e.process(x, y, dir),
            (NdEngine::D(e), ComplexBuffer::C64(x), ComplexBuffer::C64(y)) => e.process(x, y, dir),
            _ => return Err(OpError::Internal("toeplitz fft tier mismatch")),
        }
        Ok(())
    }
}

/// One apply's worth of grid buffers. Under a fixed configuration each
/// buffer keeps a stable tier across applies, so `reset_for_overwrite`
/// reuses the allocation every time: `spec`/`specb` are the forward
/// grid and its rotation partner in the Fft tier, `mid` materializes
/// only when the Sbgemv tier differs, and `ispec`/`ispecb` only when
/// the Ifft tier differs from its predecessor.
pub struct GridWorkspace {
    spec: ComplexBuffer,
    specb: ComplexBuffer,
    mid: ComplexBuffer,
    ispec: ComplexBuffer,
    ispecb: ComplexBuffer,
}

impl Default for GridWorkspace {
    /// All-empty workspace; `Vec::new()` does not allocate.
    fn default() -> Self {
        let empty = || ComplexBuffer::C64(Vec::new());
        GridWorkspace {
            spec: empty(),
            specb: empty(),
            mid: empty(),
            ispec: empty(),
            ispecb: empty(),
        }
    }
}

impl Workspace for GridWorkspace {
    fn bytes(&self) -> usize {
        [&self.spec, &self.specb, &self.mid, &self.ispec, &self.ispecb]
            .iter()
            .map(|b| b.bytes())
            .sum()
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
    /// Phases 2–4 on the grid already embedded in `ws.spec` (Fft tier):
    /// forward N-d FFT, multiply by `sp` (conjugated for the adjoint)
    /// through the device backend's cast and Hadamard primitives,
    /// inverse N-d FFT. Returns the buffer holding the result.
    ///
    /// Each role has a dedicated buffer — the Ifft operand must sit in
    /// an Ifft-tier buffer with a same-tier rotation partner — so tiers
    /// stay stable across applies under a fixed configuration (zero
    /// steady-state allocation).
    fn transform<'w>(
        &self,
        pipe: &TieredPipeline<Self>,
        sp: &TierSpectra,
        conj: bool,
        ws: &'w mut GridWorkspace,
    ) -> Result<&'w mut ComplexBuffer, OpError> {
        let (cfg, device) = (pipe.config(), pipe.device());
        let p_fft = cfg.phase(MatvecPhase::Fft);
        let p_gemv = cfg.phase(MatvecPhase::Sbgemv);
        let p_ifft = cfg.phase(MatvecPhase::Ifft);
        let n = self.sym.grid_len();
        let GridWorkspace { spec, specb, mid, ispec, ispecb } = ws;

        specb.reset_for_overwrite(p_fft, n);
        pipe.engine(p_fft)?.process(spec, specb, FftDirection::Forward)?;

        let use_mid = p_gemv != p_fft;
        if use_mid {
            device.cast_complex(spec, p_gemv, mid)?;
        }
        let io = if use_mid { &mut *mid } else { &mut *spec };
        device.pointwise_multiply(io, sp.buffer(p_gemv), conj)?;

        let (inv, partner) = if p_ifft != p_gemv {
            device.cast_complex(io, p_ifft, ispec)?;
            ispecb.reset_for_overwrite(p_ifft, n);
            (ispec, ispecb)
        } else if use_mid {
            ispecb.reset_for_overwrite(p_ifft, n);
            (mid, ispecb)
        } else {
            (spec, specb)
        };
        pipe.engine(p_ifft)?.process(inv, partner, FftDirection::Inverse)?;
        Ok(inv)
    }
}

impl SpectralKernel for PointwiseKernel {
    type Engine = NdEngine;
    type Workspace = GridWorkspace;

    fn shape(&self) -> OpShape {
        OpShape::new(self.sym.generator().rows(), self.sym.generator().cols())
    }

    /// Per-axis plans always resolve through the process-wide cache, so
    /// rebuilds only re-link shared twiddle tables.
    fn plan(&self, _device: &dyn DeviceBackend, p: Precision) -> Result<NdEngine, BackendError> {
        let dims = self.sym.work_dims();
        Ok(match p {
            Precision::Half => NdEngine::H(NdFft::new(dims)),
            Precision::BFloat16 => NdEngine::B(NdFft::new(dims)),
            Precision::Single => NdEngine::S(NdFft::new(dims)),
            Precision::Double => NdEngine::D(NdFft::new(dims)),
        })
    }

    fn scratch_pooled(engine: &NdEngine) -> usize {
        match engine {
            NdEngine::H(e) => e.scratch_pooled(),
            NdEngine::B(e) => e.scratch_pooled(),
            NdEngine::S(e) => e.scratch_pooled(),
            NdEngine::D(e) => e.scratch_pooled(),
        }
    }

    fn run(
        &self,
        pipe: &TieredPipeline<Self>,
        dir: OpDirection,
        input: &[f64],
        out: &mut [f64],
        ws: &mut GridWorkspace,
    ) -> Result<(), OpError> {
        let levels = self.sym.generator().levels();
        let nl = levels.len();
        let mut in_ext = [0usize; MAX_LEVELS];
        let mut out_ext = [0usize; MAX_LEVELS];
        for (l, lv) in levels.iter().enumerate() {
            (in_ext[l], out_ext[l]) = match dir {
                OpDirection::Forward => (lv.cols, lv.rows),
                OpDirection::Adjoint => (lv.rows, lv.cols),
            };
        }
        let (in_dims, out_dims) = (&in_ext[..nl], &out_ext[..nl]);
        let grid_dims = self.sym.work_dims();
        let n = self.sym.grid_len();
        let conj = matches!(dir, OpDirection::Adjoint);
        let cfg = pipe.config();
        let p_pad = cfg.phase(MatvecPhase::Pad);
        let p_fft = cfg.phase(MatvecPhase::Fft);
        let p_unpad = cfg.phase(MatvecPhase::Unpad);

        match self.sym.spectra() {
            // Full embedding: pad → FFTN → ⊙ĉ → IFFTN → extract, one
            // pass over the whole circulant grid. The embed rounds
            // through cfg[Pad] (cast fused into the grid write); the
            // extraction rounds through cfg[Unpad] into the always-double
            // output.
            SpectraSet::Full(sp) => {
                ws.spec.reset_for_overwrite(p_fft, n);
                each_tier!(&mut ws.spec, v => {
                    kernels::zero_fill(v);
                    kernels::embed_head(in_dims, grid_dims, input, p_pad, v);
                });
                let inv = self.transform(pipe, sp, conj, ws)?;
                each_tier!(&*inv, v => kernels::extract_head(out_dims, grid_dims, v, p_unpad, out));
            }
            // Split-FFT (Siron & Molesky, arXiv:2406.17981): the even and
            // odd outer-frequency channels stream **sequentially**
            // through one half-size grid — two transform passes, half the
            // peak scratch. The odd channel pre-twists the input rows and
            // accumulates its reconstruction-weighted contribution
            // (the even channel writes ½·E[n], the odd adds
            // ½·Re(e^{+iπn/n₁}·O[n])) straight into the `f64` output, so
            // no full-size buffer ever materializes.
            SpectraSet::Split { even, odd, twist, untwist } => {
                let m2 = grid_dims[1];
                let channels = [(even, None, None), (odd, Some(&twist[..]), Some(&untwist[..]))];
                for (sp, twist, untwist) in channels {
                    ws.spec.reset_for_overwrite(p_fft, n);
                    each_tier!(&mut ws.spec, v => {
                        kernels::pad_split(in_dims[0], in_dims[1], m2, input, p_pad, twist, v)
                    });
                    let inv = self.transform(pipe, sp, conj, ws)?;
                    each_tier!(&*inv, v => kernels::extract_split(
                        out_dims[0],
                        out_dims[1],
                        m2,
                        v,
                        p_unpad,
                        untwist,
                        untwist.is_some(),
                        out,
                    ));
                }
            }
        }
        Ok(())
    }

    /// The Sbgemv tier's spectrum cast (applies stay allocation-free).
    fn warm(&self, cfg: PrecisionConfig) {
        let p = cfg.phase(MatvecPhase::Sbgemv);
        match self.sym.spectra() {
            SpectraSet::Full(sp) => sp.warm(p),
            SpectraSet::Split { even, odd, .. } => {
                even.warm(p);
                odd.warm(p);
            }
        }
    }

    fn condition_estimate(&self) -> f64 {
        self.sym.condition_estimate()
    }

    /// The N-d transform depth is `log₂(∏ m_l)` regardless of path
    /// (split runs the same total work in two channels), and the
    /// pointwise Sbgemv reduces over a single element (`n_local = 1`).
    fn bound_params(&self, dir: OpDirection, kappa: f64) -> BoundParams {
        BoundParams::for_direction(dir, self.sym.embed_total(), 1, 1, 1, 1, kappa)
    }

    fn phase_weights(&self, dir: OpDirection) -> PhaseWeights {
        PhaseWeights::for_shape(1, 1, self.sym.embed_total(), dir)
    }

    /// Per channel — one on the full embedding, two half-grid channels
    /// on the split path — an embed stream, one batched complex FFT
    /// launch per grid axis, the pointwise multiply (read grid + symbol,
    /// write grid) with the tier-boundary casts charged to it as the
    /// paper charges the reorders to SBGEMV, the inverse axis passes and
    /// the extract stream.
    fn modeled_phases(
        &self,
        cfg: PrecisionConfig,
        dir: OpDirection,
        dev: &DeviceSpec,
    ) -> PhaseTimes {
        let (in_len, out_len) = self.shape().io_lens(dir);
        let n = self.sym.grid_len();
        let [p_pad, p_fft, p_gemv, p_ifft, p_unpad] = MatvecPhase::ALL.map(|ph| cfg.phase(ph));
        let grid = |p: Precision| (n * p.complex_bytes()) as f64;
        let stream = |name, p, read, written| {
            KernelProfile::streaming(name, dtype_for(true, p), read, written).estimate_time(dev)
        };
        let cast = |name, from: Precision, to: Precision| {
            if from == to {
                0.0
            } else {
                stream(name, to, grid(from), grid(to))
            }
        };
        let fftn = |name, p| -> f64 {
            let axis = |&d| KernelProfile::fft(name, dtype_for(true, p), d, n / d);
            self.sym.work_dims().iter().map(|d| axis(d).estimate_time(dev)).sum()
        };
        let mut channel = PhaseTimes::new();
        channel.add(Phase::Pad, stream("embed", p_pad, (in_len * 8) as f64, grid(p_fft)));
        channel.add(Phase::Fft, fftn("fftn", p_fft));
        let multiply = stream("pointwise", p_gemv, 2.0 * grid(p_gemv), grid(p_gemv));
        let casts = cast("cast_in", p_fft, p_gemv) + cast("cast_out", p_gemv, p_ifft);
        channel.add(Phase::Sbgemv, multiply + casts);
        channel.add(Phase::Ifft, fftn("ifftn", p_ifft));
        channel.add(Phase::Unpad, stream("extract", p_unpad, grid(p_ifft), (out_len * 8) as f64));
        let mut times = channel.clone();
        if self.sym.is_split() {
            times.add_with(&channel);
        }
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
    /// Compute or adopt the symbol and build the pipeline over it;
    /// `split` is the builder's requested path (`None` = full / inherit).
    fn build(
        self,
        opts: BuildOptions,
        split: Option<bool>,
        two_level_only: bool,
    ) -> Result<TieredPipeline<PointwiseKernel>, ConfigError> {
        let levels = match &self {
            SymbolSource::Gen(gen) => gen.levels().len(),
            SymbolSource::Shared(sym) => sym.generator().levels().len(),
        };
        if two_level_only && levels != 2 {
            return Err(ConfigError::ZeroDimension {
                what: "TwoLevelToeplitz needs exactly two levels",
            });
        }
        let sym = match self {
            SymbolSource::Gen(gen) if split == Some(true) => Arc::new(ToeplitzSymbol::split(gen)?),
            SymbolSource::Gen(gen) => Arc::new(ToeplitzSymbol::full(gen)?),
            SymbolSource::Shared(sym) => {
                if split.is_some_and(|want| want != sym.is_split()) {
                    return Err(ConfigError::ZeroDimension {
                        what: "shared symbol path conflicts with split_fft()",
                    });
                }
                sym
            }
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
        Ok(NdCirculantEmbedding(self.source.build(self.opts, None, false)?))
    }
}

/// Builder for [`TwoLevelToeplitz`].
pub struct TwoLevelToeplitzBuilder {
    source: SymbolSource,
    opts: BuildOptions,
    split: Option<bool>,
}

impl TwoLevelToeplitzBuilder {
    fftmatvec_core::spectral_builder_setters!(opts);

    /// Select the memory-optimized split-FFT construction path
    /// (default `false` = full embedding). Over a shared symbol
    /// ([`TwoLevelToeplitz::builder_arc`]) the symbol already fixes the
    /// path; requesting the other one fails construction.
    pub fn split_fft(mut self, split: bool) -> Self {
        self.split = Some(split);
        self
    }

    /// Build the operator (see
    /// [`NdCirculantEmbeddingBuilder::build`]).
    pub fn build(self) -> Result<TwoLevelToeplitz, ConfigError> {
        Ok(TwoLevelToeplitz(self.source.build(self.opts, self.split, true)?))
    }
}

// ---------------------------------------------------------------------
// Public operator types
// ---------------------------------------------------------------------

/// What both public types share beyond the pipeline they deref to: the
/// symbol accessors, the builder entry points, and the operator traits
/// (forwarded so the wrappers themselves can be registered and swept).
macro_rules! operator_common {
    ($ty:ident, $builder:ident { $($extra:tt)* }) => {
        impl $ty {
            /// Start building over a generator (computes the symbol
            /// spectrum at build time).
            pub fn builder(gen: ToeplitzGenerator) -> $builder {
                $builder { source: SymbolSource::Gen(gen), opts: BuildOptions::default(), $($extra)* }
            }

            /// Start building over an already-computed shared symbol —
            /// how a service builds per-configuration variants of one
            /// registered operator without recomputing spectra. The
            /// symbol's construction path (full or split) carries over.
            pub fn builder_arc(sym: Arc<ToeplitzSymbol>) -> $builder {
                $builder { source: SymbolSource::Shared(sym), opts: BuildOptions::default(), $($extra)* }
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

            /// Whether this operator runs the split-FFT path.
            pub fn is_split(&self) -> bool {
                self.0.kernel().sym.is_split()
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

/// Multi-level Toeplitz operator realized by full multi-level circulant
/// embedding: any level count `1 ≤ L ≤` [`MAX_LEVELS`], rectangular
/// (non-square) levels included. `apply_forward` is
/// `extract ∘ IFFTN ∘ (⊙ ĉ) ∘ FFTN ∘ pad`; the adjoint conjugates the
/// symbol. Derefs to the shared [`TieredPipeline`].
pub struct NdCirculantEmbedding(TieredPipeline<PointwiseKernel>);

operator_common!(NdCirculantEmbedding, NdCirculantEmbeddingBuilder {});

/// Two-level Toeplitz operator (block-Toeplitz with Toeplitz blocks —
/// the EM-scattering / acoustics / MRI system-matrix case), with an
/// optional memory-optimized **split-FFT** construction path
/// ([`TwoLevelToeplitzBuilder::split_fft`]) that streams the even/odd
/// outer-frequency channels through one half-size grid. Derefs to the
/// shared [`TieredPipeline`].
pub struct TwoLevelToeplitz(TieredPipeline<PointwiseKernel>);

operator_common!(TwoLevelToeplitz, TwoLevelToeplitzBuilder { split: None });

/// Unwrap to the shared pipeline — how the service registry hands a
/// built operator to its family-generic tunable registration.
impl From<TwoLevelToeplitz> for TieredPipeline<PointwiseKernel> {
    fn from(op: TwoLevelToeplitz) -> Self {
        op.0
    }
}

impl TwoLevelToeplitz {
    /// The shared double-precision plan handle for grid axis `axis`:
    /// taken from the resident double engine when the configuration has
    /// one, else resolved through the process-wide cache — either way,
    /// handles for the same length compare pointer-equal across every
    /// operator and pipeline in the process.
    fn axis_plan(&self, axis: usize) -> PlanHandle<f64> {
        match self.0.resident_engine(Precision::Double) {
            Some(NdEngine::D(engine)) => engine.axis_plan(axis).clone(),
            _ => cache::complex_plan::<f64>(self.0.kernel().sym.work_dims()[axis]),
        }
    }

    /// The plan handle for the **outer** level's transform length
    /// (fastmat's `planWhole`).
    pub fn plan_whole(&self) -> PlanHandle<f64> {
        self.axis_plan(0)
    }

    /// The plan handle for the **inner** level's transform length
    /// (fastmat's `planBlock`).
    pub fn plan_block(&self) -> PlanHandle<f64> {
        self.axis_plan(1)
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
    fn split_matches_dense_and_full_on_odd_and_nonsquare_shapes() {
        // Odd block extents and rectangular levels — the regression
        // shapes: embedding slack on both axes, rows ≠ cols.
        for (outer, inner) in
            [((3, 3), (5, 5)), ((4, 2), (3, 7)), ((2, 5), (6, 3)), ((1, 4), (5, 1))]
        {
            let gen = random_gen(&[outer, inner], 11);
            let full = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
            let split = TwoLevelToeplitz::builder(gen.clone()).split_fft(true).build().unwrap();
            assert!(split.is_split() && !full.is_split());
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let (in_len, out_len) = full.shape().io_lens(dir);
                let x = random_vec(in_len, 31);
                let mut yf = vec![0.0; out_len];
                let mut ys = vec![0.0; out_len];
                full.apply_into(dir, &x, &mut yf).unwrap();
                split.apply_into(dir, &x, &mut ys).unwrap();
                let want = dense_apply(&gen, dir, &x);
                assert!(rel_l2_error(&want, &ys) < 1e-12, "split vs dense {outer:?}/{inner:?}");
                // Same algebra, same plans: the two paths agree to
                // double roundoff.
                assert!(rel_l2_error(&yf, &ys) < 1e-13, "split vs full {outer:?}/{inner:?}");
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
    fn split_tracks_full_within_documented_budgets_per_tier() {
        let gen = random_gen(&[(5, 5), (4, 4)], 17);
        for cfg in
            [PrecisionConfig::all_double(), PrecisionConfig::all_single(), "dhhdd".parse().unwrap()]
        {
            let full = TwoLevelToeplitz::builder(gen.clone()).precision(cfg).build().unwrap();
            let split = TwoLevelToeplitz::builder(gen.clone())
                .precision(cfg)
                .split_fft(true)
                .build()
                .unwrap();
            let budget = crate::tier_rel_budget(crate::narrowest_tier(cfg));
            let x = random_vec(full.shape().cols, 43);
            let mut yf = vec![0.0; full.shape().rows];
            let mut ys = vec![0.0; full.shape().rows];
            full.apply_forward_into(&x, &mut yf).unwrap();
            split.apply_forward_into(&x, &mut ys).unwrap();
            let err = rel_l2_error(&yf, &ys);
            assert!(err < budget, "{cfg}: split drifts {err} from full (budget {budget})");
        }
    }

    #[test]
    fn into_and_allocating_paths_agree_bitwise() {
        let gen = random_gen(&[(3, 4), (5, 3)], 19);
        let op = TwoLevelToeplitz::builder(gen).split_fft(true).build().unwrap();
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
            .split_fft(true)
            .build()
            .unwrap();
        let x = random_vec(op.shape().cols, 61);
        let mut y = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y).unwrap();
        let pooled_before = op.fft_scratch_pooled(Precision::Double);
        assert!(pooled_before.is_some());
        // dssdd keeps the double Ifft engine resident.
        op.set_config("dssdd".parse().unwrap());
        assert_eq!(op.fft_scratch_pooled(Precision::Double), pooled_before);
        assert!(op.fft_scratch_pooled(Precision::Single).is_some());
        let mut y2 = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y2).unwrap();
        assert!(rel_l2_error(&y, &y2) < crate::tier_rel_budget(Precision::Single));
        // Back to all-double: single engine dropped.
        op.set_config(PrecisionConfig::all_double());
        assert!(op.fft_scratch_pooled(Precision::Single).is_none());
        let mut y3 = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y3).unwrap();
        assert_eq!(y, y3);
    }

    #[test]
    fn nested_plans_share_through_the_process_cache() {
        let gen = random_gen(&[(4, 4), (8, 8)], 31);
        let a = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
        let b = TwoLevelToeplitz::builder(gen.clone()).split_fft(true).build().unwrap();
        // Inner extents agree across paths (outer halves under split),
        // so planBlock is literally the same Arc.
        assert!(Arc::ptr_eq(&a.plan_block(), &b.plan_block()));
        // And a 1-level operator over the inner length shares it too.
        let inner = NdCirculantEmbedding::builder(random_gen(&[(8, 8)], 33)).build().unwrap();
        let _ = inner;
        assert!(Arc::ptr_eq(&a.plan_block(), &cache::complex_plan::<f64>(16)));
        // planWhole: full grid outer is 8, split half grid outer is 4.
        assert!(Arc::ptr_eq(&a.plan_whole(), &cache::complex_plan::<f64>(8)));
        assert!(Arc::ptr_eq(&b.plan_whole(), &cache::complex_plan::<f64>(4)));
    }

    #[test]
    fn split_peak_scratch_is_measurably_below_full() {
        let gen = random_gen(&[(8, 8), (8, 8)], 37);
        let full = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
        let split = TwoLevelToeplitz::builder(gen).split_fft(true).build().unwrap();
        let x = random_vec(full.shape().cols, 71);
        let mut y = vec![0.0; full.shape().rows];
        full.apply_forward_into(&x, &mut y).unwrap();
        split.apply_forward_into(&x, &mut y).unwrap();
        let (fb, sb) = (full.workspace_peak_bytes(), split.workspace_peak_bytes());
        assert!(fb > 0 && sb > 0);
        // The half-size grid should cut workspace scratch to ~half;
        // allow generous slack while still proving a real reduction.
        assert!((sb as f64) <= 0.75 * fb as f64, "split scratch {sb} not below 0.75×full {fb}");
    }

    #[test]
    fn budget_build_and_retune_restore_on_error() {
        let gen = random_gen(&[(4, 4), (4, 4)], 41);
        let mut op = TwoLevelToeplitz::builder(gen.clone())
            .split_fft(true)
            .error_budget(1e-6)
            .build()
            .unwrap();
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
        assert!(matches!(
            TwoLevelToeplitz::builder(g1).build(),
            Err(ConfigError::ZeroDimension { .. })
        ));
        let g2 = random_gen(&[(3, 3), (4, 4)], 47);
        let split_sym = Arc::new(ToeplitzSymbol::split(g2.clone()).unwrap());
        assert!(matches!(
            TwoLevelToeplitz::builder_arc(Arc::clone(&split_sym)).split_fft(false).build(),
            Err(ConfigError::ZeroDimension { .. })
        ));
        // Inheriting the shared path works and shares the spectra.
        let op = TwoLevelToeplitz::builder_arc(split_sym).build().unwrap();
        assert!(op.is_split());
    }

    #[test]
    fn batched_apply_matches_loop_of_singles() {
        let gen = random_gen(&[(3, 3), (4, 4)], 53);
        let op = TwoLevelToeplitz::builder(gen).split_fft(true).build().unwrap();
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
