//! The tiered spectral pipeline core.
//!
//! The paper's mixed-precision framework is one five-phase skeleton —
//! pad/embed → FFT → symbol apply → IFFT → unpad/extract — whose
//! per-phase precision tier is a runtime [`PrecisionConfig`]. Every
//! FFT-based operator family in the workspace is that skeleton with a
//! different embedding and symbol-apply step (SBGEMV for
//! block-triangular Toeplitz, a pointwise multiply for multi-level
//! Toeplitz), so everything else is written once, here:
//!
//! * **[`TieredPipeline`] owns** backend/device resolution, the per-tier
//!   engine bank ([`TierSlots`]: engines survive a reconfiguration when
//!   their tier is still in use), the pooled workspaces
//!   ([`crate::workspace::WorkspacePool`]), the configuration and
//!   `set_config`, budget resolution (`retune_budget` / `autotuned`),
//!   [`LinearOperator`] + [`ConfigurableOperator`] including the
//!   sequential/parallel `apply_many_into`, and the diagnostics
//!   accessors.
//! * **A [`SpectralKernel`] supplies** only what is operator-specific:
//!   its shape, how to plan one tier's transform engine, its workspace
//!   struct, `run` (the five phase calls), `warm` for narrow symbol
//!   copies, the Eq. 6 inputs the autotuner needs, and `modeled_phases`
//!   — what one apply costs on a modeled device.
//! * **[`TierSpectra`]** is the symbol every kernel multiplies by: one
//!   double-precision spectrum computed at setup plus its lazily narrowed
//!   per-tier copies, held in a [`TierSlots`] bank — `F̂` for the
//!   block-triangular family, the circulant symbol for the multi-level
//!   one.
//!
//! Every apply, single or batched, goes through one private step that
//! runs the kernel over a **panel** of columns — a batch of one for
//! `apply_into`, up to [`PANEL`] for `apply_many_into` — and books each
//! column as one apply: a host→device edge before the kernel, then a
//! device→host edge and the kernel's cost model handed to
//! [`DeviceBackend::record_apply`] after it, so transfer and modeled-time
//! accounting are per column whatever the panel width, and identical for
//! every kernel. Panels change no bit: a kernel's `run` must give every
//! column its solo apply's output (the block-triangular kernel shares
//! its transforms' SIMD lanes and each register of `F̂` between the
//! columns; the multi-level Toeplitz kernel loops them).
//!
//! Builders carry their options in a [`BuildOptions`] and get the four
//! shared setters from [`spectral_builder_setters!`](crate::spectral_builder_setters).
//! The hot path is statically dispatched through `K`.

use std::sync::{Arc, OnceLock};

use fftmatvec_backend::{BackendError, BackendKind, DeviceBackend};
use fftmatvec_fft::par::{spread_len, try_for_each_chunk_mut};
use fftmatvec_gpu::{DeviceSpec, PhaseTimes};
use fftmatvec_numeric::{ComplexBuffer, Precision, C64};

use crate::autotune::{self, AutotuneChoice, PhaseWeights, TierCalibration};
use crate::error_analysis::BoundParams;
use crate::linop::{
    check_apply, check_batch, ConfigError, ConfigurableOperator, LinearOperator, OpDirection,
    OpError, OpShape,
};
use crate::precision::{MatvecPhase, PrecisionConfig};
use crate::workspace::{Workspace, WorkspacePool};

/// Columns per panel of a batched apply: the widest panel
/// `apply_many_into` hands one kernel `run`. Four is one register panel of
/// the SBGEMV; eight fills two, and gives the two-series side of a short,
/// wide operator four `f64` lane groups per transform call — on the
/// 2×16×64 serve shape an F + F\* pair per column ran ≈ 12 % faster at 8
/// than at 4. A panel's workspace holds all its columns' spectra.
pub const PANEL: usize = 8;

/// The operator-specific part of a tiered spectral pipeline.
pub trait SpectralKernel: Send + Sync + Sized {
    /// One precision tier's transform engine.
    type Engine: Send + Sync;
    /// One apply's intermediate buffers.
    type Workspace: Workspace + Send;

    /// Operator shape; the forward map takes `cols` to `rows`.
    fn shape(&self) -> OpShape;

    /// Plan the transform engine for tier `p`. Plans resolve through the
    /// process-wide plan cache, so this is mostly a lookup.
    fn plan(&self, device: &dyn DeviceBackend, p: Precision) -> Result<Self::Engine, BackendError>;

    /// One full five-phase pass in `pipe.config()` over a panel of `cols ≥
    /// 1` columns — `inputs` and `outs` hold `cols` whole columns back to
    /// back — with all intermediates drawn from `ws` and engines from
    /// [`TieredPipeline::engine`]. Every output column must be
    /// bit-identical to the same column run alone (`cols = 1`); how the
    /// columns share the phases is the kernel's business. The caller has
    /// validated the lengths. On failure the error is the lowest failing
    /// column's.
    fn run(
        &self,
        pipe: &TieredPipeline<Self>,
        dir: OpDirection,
        inputs: &[f64],
        outs: &mut [f64],
        cols: usize,
        ws: &mut Self::Workspace,
    ) -> Result<(), OpError>;

    /// Materialize whatever `cfg` touches beyond the engines (narrow
    /// symbol copies), so applies stay allocation-free.
    fn warm(&self, _cfg: PrecisionConfig) {}

    /// Condition estimate `κ` for Eq. 6 pruning. Called at most once per
    /// pipeline, and only when a budget is resolved or a bound is asked
    /// for.
    fn condition_estimate(&self) -> f64;

    /// Eq. 6 parameters for direction `dir` given `κ`.
    fn bound_params(&self, dir: OpDirection, kappa: f64) -> BoundParams;

    /// Phase cost weights for calibration-based selection.
    fn phase_weights(&self, dir: OpDirection) -> PhaseWeights;

    /// Modeled device time of one apply in direction `dir` under `cfg`
    /// on `dev`, per phase — the closed form a simulated device books
    /// once per apply (Comm stays zero: the transfer edge is the
    /// device's own charge).
    fn modeled_phases(
        &self,
        cfg: PrecisionConfig,
        dir: OpDirection,
        dev: &DeviceSpec,
    ) -> PhaseTimes;
}

/// Per-tier bank: one lazily built `E` per precision. Holds a pipeline's
/// transform engines (retained only for the tiers the current
/// configuration's FFT/IFFT phases use) and a [`TierSpectra`]'s narrowed
/// copies.
pub struct TierSlots<E> {
    slots: [OnceLock<E>; 4],
}

impl<E> Default for TierSlots<E> {
    fn default() -> Self {
        TierSlots { slots: Default::default() }
    }
}

impl<E> TierSlots<E> {
    /// Does `cfg` run a transform phase in tier `p`? Only phases 2 and 4
    /// own engines.
    pub fn uses(cfg: PrecisionConfig, p: Precision) -> bool {
        cfg.phase(MatvecPhase::Fft) == p || cfg.phase(MatvecPhase::Ifft) == p
    }

    /// The resident entry for tier `p`, if any.
    pub fn get(&self, p: Precision) -> Option<&E> {
        self.slots[p as usize].get()
    }

    /// The resident entry for tier `p`, built by `init` on first use. On
    /// a race exactly one `init` result is stored and every caller sees
    /// it.
    pub fn get_or_init(&self, p: Precision, init: impl FnOnce() -> E) -> &E {
        self.slots[p as usize].get_or_init(init)
    }

    /// The resident engine for tier `p`, planning one on first use. On a
    /// plan race the first stored engine wins (same semantics as
    /// `get_or_init`; the spare is dropped).
    pub fn get_or_plan(
        &self,
        p: Precision,
        plan: impl FnOnce() -> Result<E, BackendError>,
    ) -> Result<&E, BackendError> {
        if let Some(engine) = self.get(p) {
            return Ok(engine);
        }
        let built = plan()?;
        Ok(self.get_or_init(p, || built))
    }

    /// Eagerly plan every engine `cfg` needs.
    pub fn warm(
        &self,
        cfg: PrecisionConfig,
        plan: impl Fn(Precision) -> Result<E, BackendError>,
    ) -> Result<(), BackendError> {
        for p in Precision::ALL {
            if Self::uses(cfg, p) {
                self.get_or_plan(p, || plan(p))?;
            }
        }
        Ok(())
    }

    /// Drop engines whose tier `cfg` no longer uses; keep the rest (plan
    /// handle *and* warmed scratch pool survive).
    pub fn retain(&mut self, cfg: PrecisionConfig) {
        for p in Precision::ALL {
            if !Self::uses(cfg, p) {
                self.slots[p as usize].take();
            }
        }
    }
}

/// One spectrum computed once in double precision at setup, with a
/// lazily narrowed copy per tier that a configuration's symbol-apply
/// phase reads — the paper's one-time cast of `F̂` (Section 3.2). Every
/// tier is a [`ComplexBuffer`], so a kernel can hand it straight to a
/// [`DeviceBackend`] primitive; rounding is
/// [`ComplexBuffer::from_c64`]'s (16-bit tiers route through `f32`).
/// Shared behind the operator's `Arc`, every pipeline over one operator
/// reads the same narrowed copies.
pub struct TierSpectra {
    /// The double spectrum, stored once: `buffer(Double)` is this.
    c64: ComplexBuffer,
    /// Narrowed copies; the double slot stays empty.
    narrow: TierSlots<ComplexBuffer>,
}

impl TierSpectra {
    /// Bank the double-precision spectrum; nothing is narrowed yet.
    pub fn new(c64: Vec<C64>) -> Self {
        TierSpectra { c64: ComplexBuffer::C64(c64), narrow: TierSlots::default() }
    }

    /// The double-precision spectrum.
    pub fn c64(&self) -> &[C64] {
        self.c64.as_c64().expect("the stored spectrum is double")
    }

    /// The spectrum in tier `p`, narrowed on first request.
    pub fn buffer(&self, p: Precision) -> &ComplexBuffer {
        match p {
            Precision::Double => &self.c64,
            _ => self.narrow.get_or_init(p, || ComplexBuffer::from_c64(p, self.c64())),
        }
    }

    /// Narrow the copy for tier `p` now, so applies stay allocation-free.
    pub fn warm(&self, p: Precision) {
        self.buffer(p);
    }
}

/// The options every spectral-pipeline builder carries; a builder embeds
/// one and exposes it through
/// [`spectral_builder_setters!`](crate::spectral_builder_setters).
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Five-phase precision configuration (default `ddddd`).
    pub precision: PrecisionConfig,
    /// Explicit execution backend; `None` defers to the
    /// `FFTMATVEC_BACKEND` environment override, then the CPU pool.
    pub backend: Option<BackendKind>,
    /// Resolve the configuration from an error budget at build time.
    pub error_budget: Option<(OpDirection, f64)>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { precision: PrecisionConfig::all_double(), backend: None, error_budget: None }
    }
}

/// The builder setters every operator family shares, written once.
/// Invoke inside a builder's `impl` block with the name of its
/// [`BuildOptions`](crate::spectral::BuildOptions) field.
#[macro_export]
macro_rules! spectral_builder_setters {
    ($opts:ident) => {
        /// Five-phase precision configuration (default `ddddd`).
        pub fn precision(mut self, cfg: $crate::PrecisionConfig) -> Self {
            self.$opts.precision = cfg;
            self
        }

        /// Execution backend. An explicit choice here wins over the
        /// `FFTMATVEC_BACKEND` environment override; when neither is set
        /// the operator runs on the CPU pool.
        pub fn backend(mut self, backend: $crate::BackendKind) -> Self {
            self.$opts.backend = Some(backend);
            self
        }

        /// Resolve the precision configuration from a
        /// **forward-direction error budget** at build time instead of
        /// fixing it with [`precision`](Self::precision): the built
        /// operator autotunes to the cheapest configuration whose Eq. 6
        /// bound is at or under `budget`, and records the bound it
        /// promised (`autotuned()`). Overrides any `precision(..)`
        /// setting.
        pub fn error_budget(self, budget: f64) -> Self {
            self.error_budget_for($crate::OpDirection::Forward, budget)
        }

        /// [`error_budget`](Self::error_budget) for an explicit
        /// direction — adjoint-heavy callers (Bayesian inversion applies
        /// `F*` as often as `F`) tune against the F* side of Eq. 6.
        pub fn error_budget_for(mut self, dir: $crate::OpDirection, budget: f64) -> Self {
            self.$opts.error_budget = Some((dir, budget));
            self
        }
    };
}

/// Live autotuning state a budget-resolved pipeline carries: the tier
/// calibration persists so later retunes refine timings instead of
/// restarting them.
#[derive(Default)]
struct AutotuneState {
    calib: TierCalibration,
    last: Option<AutotuneChoice>,
}

/// A configured spectral operator ready to apply `F` and `F*` through
/// the [`LinearOperator`] trait: kernel `K` plus everything the module
/// docs list as shared.
pub struct TieredPipeline<K: SpectralKernel> {
    kernel: K,
    cfg: PrecisionConfig,
    backend: BackendKind,
    device: Arc<dyn DeviceBackend>,
    engines: TierSlots<K::Engine>,
    pool: WorkspacePool<K::Workspace>,
    kappa: OnceLock<f64>,
    autotune: Option<Box<AutotuneState>>,
}

impl<K: SpectralKernel> std::fmt::Debug for TieredPipeline<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredPipeline")
            .field("shape", &self.kernel.shape())
            .field("config", &self.cfg.to_string())
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl<K: SpectralKernel> TieredPipeline<K> {
    /// Build a pipeline around `kernel`: resolve the backend (an unknown
    /// `FFTMATVEC_BACKEND` name fails here, typed), plan the engines the
    /// configuration needs and preallocate nothing else; workspaces fill
    /// on first apply.
    ///
    /// With an error budget set, building also runs the autotune pass:
    /// estimate `κ`, prune the lattice by Eq. 6, time the admissible
    /// tiers, and install the cheapest admissible configuration. An
    /// unsatisfiable or invalid budget fails construction with the
    /// corresponding [`ConfigError`].
    pub fn build(kernel: K, opts: BuildOptions) -> Result<Self, ConfigError> {
        let backend = BackendKind::resolve(opts.backend)?;
        let mut pipe = TieredPipeline {
            kernel,
            cfg: opts.precision,
            backend,
            device: fftmatvec_backend::create(backend),
            engines: TierSlots::default(),
            pool: WorkspacePool::default(),
            kappa: OnceLock::new(),
            autotune: None,
        };
        pipe.warm()?;
        if let Some((dir, budget)) = opts.error_budget {
            pipe.resolve_budget(dir, budget).map_err(|e| match e {
                OpError::Config(c) => c,
                other => ConfigError::Autotune(other.to_string()),
            })?;
        }
        Ok(pipe)
    }

    fn warm(&self) -> Result<(), BackendError> {
        self.engines.warm(self.cfg, |p| self.kernel.plan(self.device.as_ref(), p))?;
        self.kernel.warm(self.cfg);
        Ok(())
    }

    /// The kernel this pipeline runs.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Recover the kernel, dropping engines and workspaces.
    pub fn into_kernel(self) -> K {
        self.kernel
    }

    /// Current precision configuration.
    pub fn config(&self) -> PrecisionConfig {
        self.cfg
    }

    /// Swap the precision configuration at runtime (the paper's dynamic
    /// reconfiguration — no operator rebuild). Engines still used by the
    /// new configuration survive with their warmed scratch pools,
    /// engines whose tier left the configuration are dropped, and newly
    /// needed tiers resolve through the plan cache.
    pub fn set_config(&mut self, cfg: PrecisionConfig) {
        self.engines.retain(cfg);
        self.cfg = cfg;
        // Best-effort warm: a tier that cannot plan here surfaces the
        // same typed error on the next apply instead.
        let _ = self.warm();
    }

    /// The execution backend this pipeline was built for.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The device backend handle the pipeline dispatches through —
    /// transfer accounting and, for the simulated device, modeled phase
    /// timings hang off it.
    pub fn device(&self) -> &Arc<dyn DeviceBackend> {
        &self.device
    }

    /// The engine for tier `p`, planned on first use.
    pub fn engine(&self, p: Precision) -> Result<&K::Engine, BackendError> {
        self.engines.get_or_plan(p, || self.kernel.plan(self.device.as_ref(), p))
    }

    /// The engine for tier `p` if one is resident.
    pub fn resident_engine(&self, p: Precision) -> Option<&K::Engine> {
        self.engines.get(p)
    }

    /// Workspaces currently parked in the pool; bounded by
    /// [`crate::workspace_retention_cap`].
    pub fn workspaces_pooled(&self) -> usize {
        self.pool.pooled()
    }

    /// Workspaces currently checked out: the applies executing on this
    /// pipeline right now.
    pub fn workspaces_in_flight(&self) -> usize {
        self.pool.in_flight()
    }

    /// High-water mark of concurrent workspace checkouts.
    pub fn workspaces_peak_in_flight(&self) -> usize {
        self.pool.peak_in_flight()
    }

    /// Largest single-workspace scratch footprint (bytes) any apply has
    /// used — the memory-model diagnostic the bench gate compares across
    /// construction paths.
    pub fn workspace_peak_bytes(&self) -> usize {
        self.pool.peak_bytes()
    }

    /// Condition estimate used for Eq. 6 pruning (computed on first use).
    pub fn condition_estimate(&self) -> f64 {
        *self.kappa.get_or_init(|| self.kernel.condition_estimate())
    }

    /// Eq. 6 parameters in direction `dir` — what `retune_budget` prunes
    /// with, exposed for sweeps and the service registry.
    pub fn bound_params(&self, dir: OpDirection) -> BoundParams {
        self.kernel.bound_params(dir, self.condition_estimate())
    }

    /// Phase cost weights for calibration-based selection.
    pub fn phase_weights(&self, dir: OpDirection) -> PhaseWeights {
        self.kernel.phase_weights(dir)
    }

    /// The autotuner's latest resolution — the installed configuration,
    /// the Eq. 6 bound it promised, and the budget it was resolved
    /// against. `None` unless a budget was ever resolved.
    pub fn autotuned(&self) -> Option<&AutotuneChoice> {
        self.autotune.as_ref().and_then(|s| s.last.as_ref())
    }

    /// Re-resolve the configuration for a new error budget (or
    /// direction), reusing the `κ` estimate and tier calibration from any
    /// previous resolution — repeat retunes refine the timings by EMA
    /// rather than re-measuring from scratch. On success the winner is
    /// installed through [`set_config`](Self::set_config); on error the
    /// current configuration stays.
    pub fn retune_budget(
        &mut self,
        dir: OpDirection,
        budget: f64,
    ) -> Result<AutotuneChoice, OpError> {
        self.resolve_budget(dir, budget)
    }

    /// One panel of `cols` applies on a checked-out workspace: each
    /// input column crosses the host→device edge, the kernel runs the
    /// panel, and then each output column crosses back and the device is
    /// told what one apply costs on a modeled part (a backend that
    /// executes for real never evaluates the closure). The CPU backends
    /// alias host memory, so the edges are accounting only. A failing
    /// panel books its uploads and nothing after them.
    fn step(
        &self,
        dir: OpDirection,
        inputs: &[f64],
        outs: &mut [f64],
        cols: usize,
        ws: &mut K::Workspace,
    ) -> Result<(), OpError> {
        let in_bytes = std::mem::size_of_val(inputs) / cols;
        let out_bytes = std::mem::size_of_val(outs) / cols;
        (0..cols).for_each(|_| self.device.record_upload(in_bytes));
        self.kernel.run(self, dir, inputs, outs, cols, ws)?;
        for _ in 0..cols {
            self.device.record_download(out_bytes);
            self.device.record_apply(&|dev| self.kernel.modeled_phases(self.cfg, dir, dev));
        }
        Ok(())
    }

    /// Budget resolution shared by `build()` and `retune_budget`. The
    /// autotune state is taken out for the duration so the calibration
    /// applies can borrow `self` mutably, and restored either way.
    fn resolve_budget(&mut self, dir: OpDirection, budget: f64) -> Result<AutotuneChoice, OpError> {
        let (params, weights) = (self.bound_params(dir), self.phase_weights(dir));
        let mut state = self.autotune.take().unwrap_or_default();
        let result = autotune::autotune(self, dir, budget, &params, &weights, &mut state.calib);
        if let Ok(choice) = result {
            self.set_config(choice.config);
            state.last = Some(choice);
        }
        self.autotune = Some(state);
        result
    }
}

impl<K: SpectralKernel> LinearOperator for TieredPipeline<K> {
    fn shape(&self) -> OpShape {
        self.kernel.shape()
    }

    fn apply_forward_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
        self.apply_into(OpDirection::Forward, input, out)
    }

    fn apply_adjoint_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
        self.apply_into(OpDirection::Adjoint, input, out)
    }

    fn apply_into(&self, dir: OpDirection, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
        check_apply(self.shape(), dir, input, out)?;
        let mut guard = self.pool.checkout();
        self.step(dir, input, out, 1, guard.ws())
    }

    /// Batched apply — the paper's §4.2.2 dense-operator assembly pattern:
    /// the batch is cut into **panels** of at most [`PANEL`] consecutive
    /// columns, and, when the pool takes the batch, no wider than
    /// `⌈cols / pool threads⌉` so that it spreads over every thread (a
    /// serial batch keeps the widest panels). Each panel is one
    /// kernel `run` on one pooled workspace (the block-triangular kernel
    /// runs one forward transform, one register-panel SBGEMV and one
    /// inverse transform for all its columns), and the panels go through
    /// `fftmatvec_fft::par`, sized by the batch's input and output
    /// elements. Every column is bit-identical to its solo apply and is
    /// booked as one apply (see the module docs). A failing batch returns
    /// the error of its **lowest failing column** (the helper's rule: the
    /// serial loop stops at the lowest failing panel, the pool runs every
    /// panel; a kernel reports its panel's lowest failing column), so
    /// which error comes back does not depend on the batch size, the panel
    /// width or the thread count.
    fn apply_many_into(
        &self,
        dir: OpDirection,
        inputs: &[f64],
        outputs: &mut [f64],
    ) -> Result<(), OpError> {
        let shape = self.shape();
        let (in_len, out_len) = shape.io_lens(dir);
        check_batch(shape, dir, inputs, outputs)?;
        let (work, init) = (inputs.len() + outputs.len(), || self.pool.checkout());
        let width = spread_len(work, outputs.len() / out_len, PANEL);
        try_for_each_chunk_mut(work, outputs, width * out_len, init, |guard, (k, o)| {
            let cols = o.len() / out_len;
            self.step(dir, &inputs[k * width * in_len..][..cols * in_len], o, cols, guard.ws())
        })
    }
}

impl<K: SpectralKernel> ConfigurableOperator for TieredPipeline<K> {
    fn config(&self) -> PrecisionConfig {
        self.cfg
    }

    fn set_config(&mut self, cfg: PrecisionConfig) {
        TieredPipeline::set_config(self, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_slots_retain_keeps_surviving_engines_and_drops_the_rest() {
        let plan = |p: Precision| Ok(Arc::new(p));
        let mut slots = TierSlots::<Arc<Precision>>::default();
        slots.warm("dsddd".parse().unwrap(), plan).unwrap();
        let (s, d) = (Precision::Single, Precision::Double);
        let kept = Arc::clone(slots.get(d).expect("Ifft tier planned"));
        assert_eq!(**slots.get(s).expect("Fft tier planned"), s);
        assert!(slots.get(Precision::Half).is_none(), "unused tiers stay empty");

        // dhddd: the double tier survives pointer-equal, single leaves,
        // half is not planned until someone warms or asks for it.
        let next: PrecisionConfig = "dhddd".parse().unwrap();
        slots.retain(next);
        assert!(Arc::ptr_eq(slots.get(d).unwrap(), &kept), "surviving engine kept, not rebuilt");
        assert!(slots.get(s).is_none(), "engine of a tier that left is dropped");
        assert!(slots.get(Precision::Half).is_none());
        slots.warm(next, plan).unwrap();
        assert!(Arc::ptr_eq(slots.get(d).unwrap(), &kept), "warm never replaces a resident");
        assert!(slots.get(Precision::Half).is_some());

        // A failing plan is returned typed and stores nothing.
        slots.retain(PrecisionConfig::all_double());
        let err = BackendError::LengthMismatch { what: "test", expected: 1, got: 0 };
        assert_eq!(slots.get_or_plan(s, || Err(err.clone())).unwrap_err(), err);
        assert!(slots.get(s).is_none());
    }

    #[test]
    fn tier_spectra_narrow_once_and_store_the_double_once() {
        let c = |re: f64, im: f64| C64::new(re, im);
        let spectra = TierSpectra::new(vec![c(1.0 / 3.0, -0.1), c(1e-9, 7.0)]);
        assert!(std::ptr::eq(spectra.buffer(Precision::Double).as_c64().unwrap(), spectra.c64()));
        for p in [Precision::Single, Precision::Half, Precision::BFloat16] {
            assert!(spectra.narrow.get(p).is_none(), "{p:?} narrowed before use");
            let first: *const ComplexBuffer = spectra.buffer(p);
            assert_eq!(*spectra.buffer(p), ComplexBuffer::from_c64(p, spectra.c64()));
            assert!(std::ptr::eq(spectra.buffer(p), first), "{p:?} narrowed twice");
        }
        assert!(spectra.narrow.get(Precision::Double).is_none(), "double never copied");
    }

    /// Test-only kernel: copies its input, except that a column whose
    /// first element is negative fails with a typed backend error that
    /// carries the column's second element (the tests store the column
    /// index there).
    struct FailOnNegative;

    #[derive(Default)]
    struct NoScratch;

    impl Workspace for NoScratch {
        fn bytes(&self) -> usize {
            0
        }
    }

    const N: usize = 8;

    fn poisoned(col: usize) -> OpError {
        OpError::Backend(BackendError::LengthMismatch { what: "poisoned", expected: 0, got: col })
    }

    impl SpectralKernel for FailOnNegative {
        type Engine = ();
        type Workspace = NoScratch;

        fn shape(&self) -> OpShape {
            OpShape::new(N, N)
        }
        fn plan(&self, _: &dyn DeviceBackend, _: Precision) -> Result<(), BackendError> {
            Ok(())
        }
        fn run(
            &self,
            _: &TieredPipeline<Self>,
            _: OpDirection,
            inputs: &[f64],
            outs: &mut [f64],
            _: usize,
            _: &mut NoScratch,
        ) -> Result<(), OpError> {
            for (input, out) in inputs.chunks_exact(N).zip(outs.chunks_exact_mut(N)) {
                if input[0] < 0.0 {
                    return Err(poisoned(input[1] as usize));
                }
                out.copy_from_slice(input);
            }
            Ok(())
        }
        fn condition_estimate(&self) -> f64 {
            1.0
        }
        fn bound_params(&self, dir: OpDirection, kappa: f64) -> BoundParams {
            BoundParams::for_direction(dir, N, 1, 1, 1, 1, kappa)
        }
        fn phase_weights(&self, _: OpDirection) -> PhaseWeights {
            PhaseWeights::uniform()
        }
        fn modeled_phases(&self, _: PrecisionConfig, _: OpDirection, _: &DeviceSpec) -> PhaseTimes {
            PhaseTimes::new()
        }
    }

    #[test]
    fn batched_apply_returns_the_first_failing_columns_typed_error() {
        let pipe = TieredPipeline::build(FailOnNegative, BuildOptions::default()).unwrap();
        // 5 columns stay on the sequential path; 1100 columns of 8 in and
        // 8 out cross the parallel threshold.
        for batch in [5usize, 1100] {
            let mut inputs = vec![1.0; batch * N];
            let mut outputs = vec![0.0; batch * N];
            pipe.apply_many_into(OpDirection::Forward, &inputs, &mut outputs).unwrap();
            assert_eq!(outputs, inputs, "batch {batch}: clean batch copies through");

            // Two failing columns; the lower index is the one reported.
            for col in [batch - 1, 3] {
                inputs[col * N] = -1.0;
                inputs[col * N + 1] = col as f64;
            }
            assert_eq!(
                pipe.apply_many_into(OpDirection::Forward, &inputs, &mut outputs).unwrap_err(),
                poisoned(3),
                "batch {batch}: the kernel's typed error must survive batching"
            );
            assert_eq!(pipe.workspaces_in_flight(), 0, "guards return on the error path");
        }
    }
}
