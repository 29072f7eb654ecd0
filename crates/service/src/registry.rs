//! Persistent operator registry.
//!
//! Building an [`FftMatvec`] is the expensive step — FFT plans are
//! created and warmed per precision tier, and the workspace pool
//! amortizes across applications. The registry keeps built operators
//! alive under stable string ids so every request against the same id
//! reuses the warm plans and pooled workspaces instead of paying
//! construction again. Registered operators are shared as
//! `Arc<dyn LinearOperator + Send + Sync>`, so concurrent batch windows
//! apply the same instance safely (the pipeline's checkout ledger
//! guarantees windows never alias a workspace).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use fftmatvec_core::autotune::{AutotuneChoice, PhaseWeights, TierCalibration};
use fftmatvec_core::error_analysis::BoundParams;
use fftmatvec_core::{
    BuildOptions, ConfigurableOperator, FftMatvecBuilder, LinearOperator, OpDirection, OpShape,
    PrecisionConfig, SpectralKernel, TieredPipeline,
};
use fftmatvec_toeplitz::TwoLevelToeplitzBuilder;

use crate::error::ServiceError;

/// The shared form every registered operator takes on the execution path.
pub(crate) type SharedOp = Arc<dyn LinearOperator + Send + Sync>;

/// Factory building a warm per-configuration variant over the tunable's
/// shared frequency-domain setup.
type VariantFactory = Box<dyn FnMut(PrecisionConfig) -> Result<SharedOp, ServiceError> + Send>;

/// One registered operator: the shared instance plus cached metadata the
/// admission path reads without touching the operator itself.
pub(crate) struct RegisteredOp {
    pub(crate) op: Arc<dyn LinearOperator + Send + Sync>,
    pub(crate) shape: OpShape,
    /// Present for operators registered via
    /// [`OperatorRegistry::register_fft_tunable`] or
    /// [`OperatorRegistry::register_toeplitz_tunable`]: the per-operator
    /// autotune state budget-routed submissions resolve through.
    pub(crate) tunable: Option<Arc<TunableState>>,
}

/// Decade bucket of an error budget: the `k` with `10^k ≤ budget <
/// 10^(k+1)`. Budget-routed requests are laned per (operator, direction,
/// bucket), so a coalesced window only ever holds requests that resolved
/// to the same configuration — batched execution stays bit-deterministic
/// per caller. Resolution uses the bucket's *lower edge* as the
/// effective budget, so the promised bound holds for every budget in the
/// bucket.
pub(crate) fn budget_bucket(budget: f64) -> i32 {
    let mut k = budget.log10().floor() as i32;
    // `log10` rounding can land one decade off right at a power of ten;
    // correct so the invariant 10^k ≤ budget < 10^(k+1) really holds.
    if 10f64.powi(k) > budget {
        k -= 1;
    } else if 10f64.powi(k + 1) <= budget {
        k += 1;
    }
    k.clamp(-300, 300)
}

/// The lower edge of a decade bucket — the conservative budget every
/// request in the bucket satisfies.
pub(crate) fn bucket_floor(bucket: i32) -> f64 {
    10f64.powi(bucket)
}

/// Per-operator autotune state, generic over the operator family: the
/// precomputed per-direction Eq. 6 parameters and phase weights, and —
/// under one lock — the live tier calibration, the resolved
/// (direction, bucket) → configuration map, the warm per-config operator
/// variants, and the variant factory. Every variant is built over the
/// same shared frequency-domain setup (`builder_arc` in both operator
/// families), so the `F̂`/symbol spectrum is paid once no matter how
/// many configurations traffic resolves to.
pub(crate) struct TunableState {
    params: [BoundParams; 2],
    weights: [PhaseWeights; 2],
    inner: Mutex<TunableInner>,
}

struct TunableInner {
    /// Calibration instrument: a private operator whose configuration is
    /// mutated freely while timing tiers; never serves traffic.
    tuner: Box<dyn ConfigurableOperator + Send>,
    make_variant: VariantFactory,
    calib: TierCalibration,
    resolved: HashMap<(OpDirection, i32), AutotuneChoice>,
    variants: HashMap<PrecisionConfig, SharedOp>,
}

impl TunableState {
    fn dir_idx(dir: OpDirection) -> usize {
        match dir {
            OpDirection::Forward => 0,
            OpDirection::Adjoint => 1,
        }
    }

    /// Resolve a budget to its bucket's configuration and warm variant,
    /// running the autotuner (with lazy tier calibration) on first sight
    /// of a (direction, bucket) pair and answering from the resolved map
    /// afterwards.
    pub(crate) fn resolve(
        &self,
        dir: OpDirection,
        budget: f64,
    ) -> Result<(AutotuneChoice, SharedOp), ServiceError> {
        let bucket = budget_bucket(budget);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let choice = match inner.resolved.get(&(dir, bucket)) {
            Some(&c) => c,
            None => {
                let params = &self.params[Self::dir_idx(dir)];
                let weights = &self.weights[Self::dir_idx(dir)];
                let TunableInner { tuner, calib, .. } = &mut *inner;
                let c = fftmatvec_core::autotune::autotune(
                    tuner.as_mut(),
                    dir,
                    bucket_floor(bucket),
                    params,
                    weights,
                    calib,
                )?;
                inner.resolved.insert((dir, bucket), c);
                c
            }
        };
        let variant = match inner.variants.get(&choice.config) {
            Some(v) => Arc::clone(v),
            None => {
                let v = (inner.make_variant)(choice.config)?;
                inner.variants.insert(choice.config, Arc::clone(&v));
                v
            }
        };
        Ok((choice, variant))
    }

    /// The already-resolved choice for a (direction, bucket), if any —
    /// a read-only peek with no calibration side effects.
    pub(crate) fn peek(&self, dir: OpDirection, budget: f64) -> Option<AutotuneChoice> {
        let bucket = budget_bucket(budget);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.resolved.get(&(dir, bucket)).copied()
    }

    /// The warm variant serving an already-resolved (direction, bucket)
    /// lane. Admission resolved the lane before queueing anything on it,
    /// so this only returns `None` if the operator was re-registered
    /// underneath queued traffic.
    pub(crate) fn variant_for_bucket(
        &self,
        dir: OpDirection,
        bucket: i32,
    ) -> Option<(PrecisionConfig, SharedOp)> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let cfg = inner.resolved.get(&(dir, bucket))?.config;
        inner.variants.get(&cfg).map(|v| (cfg, Arc::clone(v)))
    }

    /// Fold an executed window's observed per-apply seconds back into
    /// the tier calibration (EMA, attributed by phase weight).
    pub(crate) fn observe(&self, dir: OpDirection, cfg: PrecisionConfig, seconds_per_apply: f64) {
        let weights = self.weights[Self::dir_idx(dir)];
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.calib.observe(cfg, dir, &weights, seconds_per_apply);
    }
}

/// Keyed store of live operators. Cheap to clone handles out of; writes
/// (register/deregister) are rare control-plane events, reads are on the
/// submit hot path, hence the `RwLock`.
pub struct OperatorRegistry {
    ops: RwLock<HashMap<String, Arc<RegisteredOp>>>,
}

impl Default for OperatorRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for OperatorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorRegistry").field("operators", &self.names()).finish()
    }
}

impl OperatorRegistry {
    /// Empty registry.
    pub fn new() -> OperatorRegistry {
        OperatorRegistry { ops: RwLock::new(HashMap::new()) }
    }

    /// Build the configured [`FftMatvec`](fftmatvec_core::FftMatvec)
    /// and register it under `id`,
    /// replacing any previous operator with that id. Construction
    /// failures surface as [`ServiceError::Shape`] wrapping
    /// `OpError::Config`.
    pub fn register_fft(&self, id: &str, builder: FftMatvecBuilder) -> Result<(), ServiceError> {
        let op = builder.build()?;
        self.register(id, Arc::new(op));
        Ok(())
    }

    /// [`OperatorRegistry::register_fft`] plus autotune support: the
    /// operator additionally accepts budget-routed submissions
    /// ([`crate::Service::submit_with_budget`]). Pays a one-time
    /// condition estimate at registration (the κ every Eq. 6 pruning
    /// pass reuses); per-tier timing calibration is lazy — a tier is
    /// first timed when a budget that could use it shows up.
    pub fn register_fft_tunable(
        &self,
        id: &str,
        builder: FftMatvecBuilder,
    ) -> Result<(), ServiceError> {
        self.register_tunable(id, builder.build()?)
    }

    /// Build the configured [`TwoLevelToeplitz`](fftmatvec_toeplitz::TwoLevelToeplitz)
    /// and register it under `id`, replacing any previous operator with
    /// that id. The service only sees [`LinearOperator`].
    pub fn register_toeplitz(
        &self,
        id: &str,
        builder: TwoLevelToeplitzBuilder,
    ) -> Result<(), ServiceError> {
        let op = builder.build()?;
        self.register(id, Arc::new(op));
        Ok(())
    }

    /// [`OperatorRegistry::register_toeplitz`] plus autotune support:
    /// budget-routed submissions resolve the cheapest 4-tier
    /// configuration whose Eq. 6 bound clears the request's bucket, just
    /// like [`OperatorRegistry::register_fft_tunable`]. Every tuned
    /// variant shares the operator's symbol spectrum, so the multi-level
    /// embedding FFT of the generator is paid exactly once.
    pub fn register_toeplitz_tunable(
        &self,
        id: &str,
        builder: TwoLevelToeplitzBuilder,
    ) -> Result<(), ServiceError> {
        self.register_tunable(id, builder.build()?.into())
    }

    /// The operator-family-generic tunable registration: `tuner` becomes
    /// the private calibration instrument, its kernel's Eq. 6 parameters
    /// and phase weights are precomputed per direction, and every
    /// variant — the plain-lane instance (non-budget submits) included —
    /// is a fresh pipeline over a clone of the kernel, i.e. over the
    /// same shared frequency-domain setup.
    fn register_tunable<K: SpectralKernel + Clone + 'static>(
        &self,
        id: &str,
        tuner: TieredPipeline<K>,
    ) -> Result<(), ServiceError> {
        let dirs = [OpDirection::Forward, OpDirection::Adjoint];
        let kernel = tuner.kernel().clone();
        let mut make_variant: VariantFactory = Box::new(move |cfg| {
            let opts = BuildOptions { precision: cfg, ..BuildOptions::default() };
            Ok(Arc::new(TieredPipeline::build(kernel.clone(), opts)?) as SharedOp)
        });
        let base_cfg = tuner.config();
        let plain = make_variant(base_cfg)?;
        let shape = plain.shape();
        let tunable = Arc::new(TunableState {
            params: dirs.map(|d| tuner.bound_params(d)),
            weights: dirs.map(|d| tuner.phase_weights(d)),
            inner: Mutex::new(TunableInner {
                tuner: Box::new(tuner),
                make_variant,
                calib: TierCalibration::new(),
                resolved: HashMap::new(),
                variants: HashMap::from([(base_cfg, Arc::clone(&plain))]),
            }),
        });
        let entry = Arc::new(RegisteredOp { op: plain, shape, tunable: Some(tunable) });
        self.ops.write().unwrap_or_else(PoisonError::into_inner).insert(id.to_string(), entry);
        Ok(())
    }

    /// Register an already-built operator under `id`, replacing any
    /// previous operator with that id. Accepts any realization of
    /// [`LinearOperator`] — custom backends plug into the same service.
    pub fn register(&self, id: &str, op: Arc<dyn LinearOperator + Send + Sync>) {
        let shape = op.shape();
        let entry = Arc::new(RegisteredOp { op, shape, tunable: None });
        self.ops.write().unwrap_or_else(PoisonError::into_inner).insert(id.to_string(), entry);
    }

    /// Remove the operator under `id`; returns whether one was present.
    /// In-flight requests against it complete normally (they hold their
    /// own `Arc`); new submissions see [`ServiceError::UnknownOperator`].
    pub fn deregister(&self, id: &str) -> bool {
        self.ops.write().unwrap_or_else(PoisonError::into_inner).remove(id).is_some()
    }

    /// Is an operator registered under `id`?
    pub fn contains(&self, id: &str) -> bool {
        self.ops.read().unwrap_or_else(PoisonError::into_inner).contains_key(id)
    }

    /// Shape of the operator under `id`, if registered.
    pub fn shape_of(&self, id: &str) -> Option<OpShape> {
        self.ops.read().unwrap_or_else(PoisonError::into_inner).get(id).map(|r| r.shape)
    }

    /// Registered ids, sorted for stable display.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.ops.read().unwrap_or_else(PoisonError::into_inner).keys().cloned().collect();
        names.sort();
        names
    }

    pub(crate) fn lookup(&self, id: &str) -> Option<Arc<RegisteredOp>> {
        self.ops.read().unwrap_or_else(PoisonError::into_inner).get(id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_core::{BlockToeplitzOperator, FftMatvec, OpError};

    fn tiny_builder() -> FftMatvecBuilder {
        let nd = 2;
        let nm = 3;
        let nt = 8;
        let col: Vec<f64> = (0..nt * nd * nm).map(|i| (i % 7) as f64 - 3.0).collect();
        FftMatvec::builder(
            BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap(),
        )
    }

    #[test]
    fn register_lookup_deregister_roundtrip() {
        let reg = OperatorRegistry::new();
        assert!(!reg.contains("tomo"));
        reg.register_fft("tomo", tiny_builder()).unwrap();
        assert!(reg.contains("tomo"));
        assert_eq!(reg.shape_of("tomo"), Some(OpShape::new(2 * 8, 3 * 8)));
        assert_eq!(reg.names(), vec!["tomo".to_string()]);
        assert!(reg.deregister("tomo"));
        assert!(!reg.deregister("tomo"));
        assert!(reg.shape_of("tomo").is_none());
    }

    #[test]
    fn registry_threads_backend_selection_through_the_builder() {
        // A service that wants modeled device timings registers with the
        // simulated backend; the operator serves bit-identical results
        // while its device handle accumulates transfer accounting.
        let reg = OperatorRegistry::new();
        reg.register_fft("cpu", tiny_builder()).unwrap();
        reg.register_fft("sim", tiny_builder().backend(fftmatvec_core::BackendKind::Simulated))
            .unwrap();
        let cpu = reg.lookup("cpu").unwrap();
        let sim = reg.lookup("sim").unwrap();
        let x: Vec<f64> = (0..cpu.shape.cols).map(|i| (i % 5) as f64 - 2.0).collect();
        let a = cpu.op.apply_forward(&x).unwrap();
        let b = sim.op.apply_forward(&x).unwrap();
        assert_eq!(a, b, "simulated backend must be bit-identical to the CPU pool");
    }

    #[test]
    fn registered_operator_is_the_live_instance() {
        let reg = OperatorRegistry::new();
        reg.register_fft("tomo", tiny_builder()).unwrap();
        let entry = reg.lookup("tomo").unwrap();
        let x = vec![1.0; entry.shape.cols];
        let y = entry.op.apply_forward(&x).unwrap();
        assert_eq!(y.len(), entry.shape.rows);
        // Re-registering under the same id replaces the entry.
        reg.register_fft("tomo", tiny_builder()).unwrap();
        let replaced = reg.lookup("tomo").unwrap();
        assert!(!Arc::ptr_eq(&entry, &replaced));
    }

    #[test]
    fn budget_buckets_are_decades_with_exact_edges() {
        // 10^k ≤ budget < 10^(k+1), including exactly at powers of ten
        // (where naive log10 flooring is one ulp from either side).
        assert_eq!(budget_bucket(1e-6), -6);
        assert_eq!(budget_bucket(9.99e-6), -6);
        assert_eq!(budget_bucket(1e-5), -5);
        assert_eq!(budget_bucket(2.5e-3), -3);
        assert_eq!(budget_bucket(1.0), 0);
        assert_eq!(budget_bucket(15.0), 1);
        for k in -30..30 {
            let edge = bucket_floor(k);
            assert_eq!(budget_bucket(edge), k, "edge 1e{k}");
            assert_eq!(budget_bucket(edge * 0.999_999), k - 1);
        }
    }

    #[test]
    fn tunable_registration_resolves_and_caches_per_bucket() {
        // Identity-like well-conditioned operator: κ ≈ 1, so generous
        // budgets admit narrow configurations.
        let (nd, nm, nt) = (6usize, 6usize, 8usize);
        let mut col = vec![0.0; nt * nd * nm];
        for i in 0..nd {
            col[i * nm + i] = 1.0;
        }
        let reg = OperatorRegistry::new();
        reg.register_fft_tunable(
            "tuned",
            FftMatvec::builder(
                BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap(),
            ),
        )
        .unwrap();
        let entry = reg.lookup("tuned").unwrap();
        let tunable = entry.tunable.as_ref().expect("registered as tunable");
        assert!(tunable.peek(OpDirection::Forward, 1e-6).is_none(), "nothing resolved yet");

        let (choice, variant) = tunable.resolve(OpDirection::Forward, 2e-6).unwrap();
        assert!(choice.bound.total <= 1e-6, "promise holds at the bucket floor");
        assert_eq!(variant.shape(), entry.shape, "variant serves the registered shape");
        // Same decade → same cached choice and variant; no re-resolution.
        let (again, variant2) = tunable.resolve(OpDirection::Forward, 9e-6).unwrap();
        assert_eq!(again.config, choice.config);
        assert!(Arc::ptr_eq(&variant, &variant2));
        assert_eq!(tunable.peek(OpDirection::Forward, 5e-6).map(|c| c.config), Some(choice.config));
        // A hopeless budget is a typed rejection, not a panic.
        let err = match tunable.resolve(OpDirection::Forward, 1e-200) {
            Err(e) => e,
            Ok(_) => panic!("1e-200 budget must be rejected"),
        };
        assert!(matches!(
            err,
            ServiceError::Shape(OpError::Config(
                fftmatvec_core::ConfigError::BudgetUnsatisfiable { .. }
            ))
        ));
    }

    #[test]
    fn toeplitz_tunable_registration_resolves_and_caches() {
        use fftmatvec_toeplitz::{ToeplitzGenerator, TwoLevelToeplitz};
        // Diagonally-dominant two-level generator: κ stays modest, so a
        // loose budget resolves to something cheaper than all-double.
        let mut diags = vec![0.0f64; 6 * 6];
        for (i, d) in diags.iter_mut().enumerate() {
            *d = 0.05 * ((i % 11) as f64 - 5.0);
        }
        diags[(4 - 1) * 6 + (2 - 1)] += 4.0; // main diagonal
        let gen = ToeplitzGenerator::two_level((3, 4), (5, 2), diags).unwrap();
        let reg = OperatorRegistry::new();
        reg.register_toeplitz_tunable("scatter", TwoLevelToeplitz::builder(gen.clone())).unwrap();
        let entry = reg.lookup("scatter").unwrap();
        assert_eq!(entry.shape, OpShape::new(3 * 5, 4 * 2));
        let tunable = entry.tunable.as_ref().expect("registered as tunable");

        let (choice, variant) = tunable.resolve(OpDirection::Adjoint, 2e-6).unwrap();
        assert!(choice.bound.total <= 1e-6, "promise holds at the bucket floor");
        assert_eq!(variant.shape(), entry.shape);
        // Variants really serve traffic and agree with the plain lane
        // when the resolved configuration is all-double.
        let x = vec![1.0; entry.shape.rows];
        let y = variant.apply_adjoint(&x).unwrap();
        assert_eq!(y.len(), entry.shape.cols);
        // Same decade caches; fresh decade in the other direction works.
        let (_, variant2) = tunable.resolve(OpDirection::Adjoint, 8e-6).unwrap();
        assert!(Arc::ptr_eq(&variant, &variant2));
        let (fwd, _) = tunable.resolve(OpDirection::Forward, 1e-3).unwrap();
        assert!(fwd.bound.total <= 1e-3);
        // The plain registered op and a tuned variant share one symbol:
        // registering was the only spectrum computation. (Indirect check:
        // plain lane still applies fine after tuning churn.)
        let plain_y = entry.op.apply_forward(&vec![1.0; entry.shape.cols]).unwrap();
        assert_eq!(plain_y.len(), entry.shape.rows);
        // Hopeless budget: typed rejection, config-restoring.
        let err = match tunable.resolve(OpDirection::Forward, 1e-200) {
            Err(e) => e,
            Ok(_) => panic!("1e-200 budget must be rejected"),
        };
        assert!(matches!(
            err,
            ServiceError::Shape(OpError::Config(
                fftmatvec_core::ConfigError::BudgetUnsatisfiable { .. }
            ))
        ));
    }

    // `BlockToeplitzOperator::new` validates eagerly, so exercise the
    // From chain directly: a ConfigError entering the service layer lands
    // as Shape(Config(..)).
    #[test]
    fn config_error_lifts_to_service_error() {
        let cfg = fftmatvec_core::ConfigError::ColumnLength { expected: 48, got: 5 };
        let e: ServiceError = cfg.clone().into();
        assert_eq!(e, ServiceError::Shape(OpError::Config(cfg)));
    }
}
