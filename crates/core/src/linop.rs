//! The unified linear-operator API.
//!
//! The paper treats the FFT matvec, the direct `O(N_t²)` matvec, and the
//! distributed matvec as interchangeable realizations of one operator
//! `F`/`F*` (Section 3; the predecessor work makes the same abstraction
//! explicit for Hessian actions in Bayesian inversion). This module is
//! that abstraction as a trait: every realization exposes
//!
//! * [`LinearOperator::shape`] — `F : R^cols → R^rows`,
//! * [`LinearOperator::apply_forward_into`] /
//!   [`LinearOperator::apply_adjoint_into`] — the zero-allocation hot
//!   paths writing into caller buffers,
//!
//! and inherits allocating conveniences ([`LinearOperator::apply_forward`],
//! [`LinearOperator::apply_adjoint`]) plus the flat-strided batched
//! [`LinearOperator::apply_many_into`]. Downstream consumers (Bayesian
//! inversion, OED, Pareto sweeps) are written against `&dyn
//! LinearOperator` or `L: LinearOperator`, so every future backend — a
//! GPU tensor-core tier, a sharded serving realization — plugs into the
//! same call sites.
//!
//! All public construction and apply paths report failures through the
//! typed [`OpError`] / [`ConfigError`] hierarchy instead of panicking.

use crate::precision::PrecisionConfig;

/// Shape of a linear operator: the forward map takes `cols` inputs to
/// `rows` outputs; the adjoint map is the transpose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpShape {
    /// Output length of the forward map (`N_d·N_t` for the matvecs here).
    pub rows: usize,
    /// Input length of the forward map (`N_m·N_t`).
    pub cols: usize,
}

impl OpShape {
    /// Shape of a `rows × cols` operator.
    pub fn new(rows: usize, cols: usize) -> Self {
        OpShape { rows, cols }
    }

    /// `(input_len, output_len)` for an application direction.
    #[inline]
    pub fn io_lens(&self, dir: OpDirection) -> (usize, usize) {
        match dir {
            OpDirection::Forward => (self.cols, self.rows),
            OpDirection::Adjoint => (self.rows, self.cols),
        }
    }
}

/// Which direction of the operator an application runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpDirection {
    /// `d = F·m`.
    Forward,
    /// `m = F*·d`.
    Adjoint,
}

impl std::fmt::Display for OpDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpDirection::Forward => write!(f, "forward"),
            OpDirection::Adjoint => write!(f, "adjoint"),
        }
    }
}

/// Typed error for the apply paths. Every variant is a caller-input
/// problem reported back instead of a panic; see the crate README's
/// "Public API" section for when each fires.
///
/// `OpError` is the middle layer of the workspace's error hierarchy
/// (`ServiceError` → `OpError` → [`ConfigError`]): construction failures
/// convert upward via `From<ConfigError>`, and the service crate wraps
/// `OpError` in turn, so callers at any layer match one way.
///
/// (`PartialEq` only, not `Eq`: [`ConfigError`]'s budget variants carry
/// `f64` payloads.)
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum OpError {
    /// The input slice length does not match the operator shape
    /// (`cols` for forward, `rows` for adjoint).
    InputLength { dir: OpDirection, expected: usize, got: usize },
    /// The output slice length does not match the operator shape
    /// (`rows` for forward, `cols` for adjoint).
    OutputLength { dir: OpDirection, expected: usize, got: usize },
    /// A batched input buffer is not a whole multiple of the per-item
    /// input stride.
    RaggedBatch { dir: OpDirection, got: usize, stride: usize },
    /// A batched output buffer implies a different batch count than the
    /// input buffer (`expected`/`got` are element counts).
    BatchMismatch { dir: OpDirection, expected: usize, got: usize },
    /// An internal invariant failed (unreachable by construction —
    /// reported as an error rather than a panic so the hot paths stay
    /// panic-free end to end).
    Internal(&'static str),
    /// An error sweep's all-double reference application produced an
    /// identically-zero vector, so relative error against it is
    /// undefined (`0/0`). Surfaced as a typed error instead of letting
    /// `NaN` points silently fall out of
    /// [`crate::pareto::optimal_for_tolerance`].
    DegenerateBaseline {
        /// The direction whose baseline collapsed to zero.
        dir: OpDirection,
    },
    /// An operator could not be constructed. Carries the underlying
    /// [`ConfigError`] (also reachable through
    /// [`std::error::Error::source`]), so paths that build operators on
    /// demand can report failures through one error type.
    Config(ConfigError),
    /// A device-backend primitive failed during execution — e.g. it was
    /// handed a buffer in a tier or of a length it was not planned for.
    /// Carries the underlying
    /// [`fftmatvec_backend::BackendError`] (also reachable through
    /// [`std::error::Error::source`]).
    Backend(fftmatvec_backend::BackendError),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::InputLength { dir, expected, got } => {
                write!(f, "{dir} input has {got} elements, operator expects {expected}")
            }
            OpError::OutputLength { dir, expected, got } => {
                write!(f, "{dir} output has {got} elements, operator produces {expected}")
            }
            OpError::RaggedBatch { dir, got, stride } => {
                write!(f, "{dir} batch of {got} elements is not a multiple of the stride {stride}")
            }
            OpError::BatchMismatch { dir, expected, got } => {
                write!(f, "{dir} batch output has {got} elements, inputs imply {expected}")
            }
            OpError::Internal(what) => write!(f, "internal operator invariant failed: {what}"),
            OpError::DegenerateBaseline { dir } => {
                write!(
                    f,
                    "all-double {dir} baseline is identically zero; \
                     relative error against it is undefined"
                )
            }
            OpError::Config(e) => write!(f, "operator construction failed: {e}"),
            OpError::Backend(e) => write!(f, "device backend failed: {e}"),
        }
    }
}

impl std::error::Error for OpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpError::Config(e) => Some(e),
            OpError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for OpError {
    fn from(e: ConfigError) -> OpError {
        OpError::Config(e)
    }
}

impl From<fftmatvec_backend::BackendError> for OpError {
    fn from(e: fftmatvec_backend::BackendError) -> OpError {
        OpError::Backend(e)
    }
}

impl From<OpError> for String {
    fn from(e: OpError) -> String {
        e.to_string()
    }
}

/// Typed error for operator/pipeline construction — the bottom layer of
/// the error hierarchy; see [`OpError`]. (`PartialEq` only: the budget
/// variants carry `f64` payloads.)
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A problem dimension (`nd`, `nm`, or `nt`) is zero.
    ZeroDimension { what: &'static str },
    /// The first-block-column buffer has the wrong number of entries for
    /// the declared `(nd, nm, nt)`.
    ColumnLength { expected: usize, got: usize },
    /// A product or sum of the given extents (`what` names it) does not
    /// fit in `usize`.
    DimensionOverflow { what: &'static str },
    /// A multi-level operator was given a number of levels outside the
    /// inclusive range `allowed` that `what` supports.
    LevelCount { what: &'static str, got: usize, allowed: (usize, usize) },
    /// A process-grid axis has more ranks than the problem axis it
    /// partitions has entries.
    GridOversubscribed { axis: &'static str, ranks: usize, extent: usize },
    /// An error budget is not a positive finite number.
    InvalidBudget {
        /// The rejected budget value.
        budget: f64,
    },
    /// No configuration on the 1024-point lattice meets the requested
    /// error budget — even all-double's Eq. 6 bound (`floor`) exceeds it.
    BudgetUnsatisfiable {
        /// The requested budget.
        budget: f64,
        /// The smallest achievable bound (all-double's).
        floor: f64,
    },
    /// Online calibration during an autotune pass failed. Carries the
    /// underlying apply error's message (timing applies use
    /// correctly-sized buffers, so this is unreachable by construction).
    Autotune(String),
    /// Backend selection or warm-up failed at build time: the requested
    /// backend is unknown, or planning a tier's engine failed. Carries the
    /// underlying [`fftmatvec_backend::BackendError`] (also reachable
    /// through [`std::error::Error::source`]).
    Backend(fftmatvec_backend::BackendError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroDimension { what } => {
                write!(f, "operator dimension {what} must be nonzero")
            }
            ConfigError::ColumnLength { expected, got } => {
                write!(f, "first block column has {got} entries, expected nt*nd*nm = {expected}")
            }
            ConfigError::DimensionOverflow { what } => {
                write!(f, "operator dimension {what} overflows usize")
            }
            ConfigError::LevelCount { what, got, allowed: (lo, hi) } => {
                write!(f, "{what} takes {lo} to {hi} levels, got {got}")
            }
            ConfigError::GridOversubscribed { axis, ranks, extent } => {
                write!(f, "grid {axis} count {ranks} exceeds the partitioned extent {extent}")
            }
            ConfigError::InvalidBudget { budget } => {
                write!(f, "error budget {budget} is not a positive finite number")
            }
            ConfigError::BudgetUnsatisfiable { budget, floor } => {
                write!(
                    f,
                    "error budget {budget:.3e} is below the all-double bound floor {floor:.3e}; \
                     no precision configuration can satisfy it"
                )
            }
            ConfigError::Autotune(msg) => write!(f, "autotune calibration failed: {msg}"),
            ConfigError::Backend(e) => write!(f, "backend selection failed: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fftmatvec_backend::BackendError> for ConfigError {
    fn from(e: fftmatvec_backend::BackendError) -> ConfigError {
        ConfigError::Backend(e)
    }
}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> String {
        e.to_string()
    }
}

/// Validate one apply call's slice lengths against `shape`, producing
/// the typed [`OpError`] every realization is expected to return. Public
/// so out-of-crate realizations of [`LinearOperator`] (e.g. the
/// multi-level Toeplitz operators) report identical errors to the
/// built-in pipelines.
pub fn check_apply(
    shape: OpShape,
    dir: OpDirection,
    input: &[f64],
    out: &[f64],
) -> Result<(), OpError> {
    let (in_len, out_len) = shape.io_lens(dir);
    if input.len() != in_len {
        return Err(OpError::InputLength { dir, expected: in_len, got: input.len() });
    }
    if out.len() != out_len {
        return Err(OpError::OutputLength { dir, expected: out_len, got: out.len() });
    }
    Ok(())
}

/// Validate a flat-strided batch and return its item count. Public for
/// the same reason as [`check_apply`]: external realizations must
/// produce the same typed batch errors the shared conformance suite
/// asserts on.
pub fn check_batch(
    shape: OpShape,
    dir: OpDirection,
    inputs: &[f64],
    outputs: &[f64],
) -> Result<usize, OpError> {
    let (in_len, out_len) = shape.io_lens(dir);
    if in_len == 0 || out_len == 0 {
        return Err(OpError::Internal("operator with a zero-length side"));
    }
    if inputs.len() % in_len != 0 {
        return Err(OpError::RaggedBatch { dir, got: inputs.len(), stride: in_len });
    }
    let batch = inputs.len() / in_len;
    if outputs.len() != batch * out_len {
        return Err(OpError::BatchMismatch { dir, expected: batch * out_len, got: outputs.len() });
    }
    Ok(batch)
}

/// A realization of the block-triangular Toeplitz operator `F` (and its
/// adjoint `F*`) acting on flat `f64` vectors.
///
/// Required surface: [`shape`](LinearOperator::shape) plus the two
/// `_into` applications, which must write the full output and perform no
/// heap allocation after warm-up. The allocating and batched methods are
/// provided on top; implementations may override
/// [`apply_many_into`](LinearOperator::apply_many_into) to share per-call
/// setup (plans, workspaces) across the batch.
pub trait LinearOperator {
    /// Operator shape; `apply_forward` maps `cols` → `rows`.
    fn shape(&self) -> OpShape;

    /// `out = F·input`. `input.len() == shape().cols`,
    /// `out.len() == shape().rows`.
    fn apply_forward_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError>;

    /// `out = F*·input`. `input.len() == shape().rows`,
    /// `out.len() == shape().cols`.
    fn apply_adjoint_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError>;

    /// Dispatch an `_into` application by direction.
    fn apply_into(&self, dir: OpDirection, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
        match dir {
            OpDirection::Forward => self.apply_forward_into(input, out),
            OpDirection::Adjoint => self.apply_adjoint_into(input, out),
        }
    }

    /// Allocating forward apply: `F·input` into a fresh vector.
    fn apply_forward(&self, input: &[f64]) -> Result<Vec<f64>, OpError> {
        let mut out = vec![0.0; self.shape().rows];
        self.apply_forward_into(input, &mut out)?;
        Ok(out)
    }

    /// Allocating adjoint apply: `F*·input` into a fresh vector.
    fn apply_adjoint(&self, input: &[f64]) -> Result<Vec<f64>, OpError> {
        let mut out = vec![0.0; self.shape().cols];
        self.apply_adjoint_into(input, &mut out)?;
        Ok(out)
    }

    /// Batched apply over **flat strided buffers**: `inputs` packs the
    /// batch contiguously (`inputs[b·in_len..][..in_len]` is item `b`),
    /// `outputs` likewise with the output stride — no `Vec<Vec<f64>>`
    /// staging, no per-item clones. The default visits items in order
    /// through the `_into` path; [`crate::FftMatvec`] overrides it so the
    /// whole batch shares one engine/workspace checkout.
    fn apply_many_into(
        &self,
        dir: OpDirection,
        inputs: &[f64],
        outputs: &mut [f64],
    ) -> Result<(), OpError> {
        let shape = self.shape();
        let (in_len, out_len) = shape.io_lens(dir);
        check_batch(shape, dir, inputs, outputs)?;
        for (i, o) in inputs.chunks_exact(in_len).zip(outputs.chunks_exact_mut(out_len)) {
            self.apply_into(dir, i, o)?;
        }
        Ok(())
    }

    /// [`apply_many_into`](LinearOperator::apply_many_into) in the
    /// forward direction.
    fn apply_forward_many_into(&self, inputs: &[f64], outputs: &mut [f64]) -> Result<(), OpError> {
        self.apply_many_into(OpDirection::Forward, inputs, outputs)
    }

    /// [`apply_many_into`](LinearOperator::apply_many_into) in the
    /// adjoint direction.
    fn apply_adjoint_many_into(&self, inputs: &[f64], outputs: &mut [f64]) -> Result<(), OpError> {
        self.apply_many_into(OpDirection::Adjoint, inputs, outputs)
    }
}

/// Forward every trait method through a pointer-like wrapper, preserving
/// any `apply_many_into` override of the pointee. Covers `&T`, `Box<T>`,
/// and `Arc<T>` (including `Arc<dyn LinearOperator + Send + Sync>`, the
/// form the service registry shares across concurrent batch windows).
macro_rules! forward_linear_operator {
    ($($ptr:ty),*) => {$(
        impl<T: LinearOperator + ?Sized> LinearOperator for $ptr {
            fn shape(&self) -> OpShape {
                (**self).shape()
            }
            fn apply_forward_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
                (**self).apply_forward_into(input, out)
            }
            fn apply_adjoint_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
                (**self).apply_adjoint_into(input, out)
            }
            fn apply_many_into(
                &self,
                dir: OpDirection,
                inputs: &[f64],
                outputs: &mut [f64],
            ) -> Result<(), OpError> {
                (**self).apply_many_into(dir, inputs, outputs)
            }
        }
    )*};
}

forward_linear_operator!(&T, Box<T>, std::sync::Arc<T>);

/// A [`LinearOperator`] whose five-phase precision configuration can be
/// swapped at runtime without rebuilding the operator — the paper's
/// dynamic reconfiguration. Pareto/error sweeps
/// ([`crate::pareto::error_sweep`]) run against this trait, so they work
/// for the single-rank pipeline and the distributed matvec alike.
pub trait ConfigurableOperator: LinearOperator {
    /// Current precision configuration.
    fn config(&self) -> PrecisionConfig;

    /// Swap the configuration; implementations rebuild only what the new
    /// configuration actually needs.
    fn set_config(&mut self, cfg: PrecisionConfig);

    /// Re-resolve this operator's configuration for an error budget and
    /// install the winner through [`set_config`](Self::set_config) — the
    /// paper's tolerance-driven selection (§3.2/§4.2) run online. Prunes
    /// the 1024-config lattice by Eq. 6 (`params` supplies `κ` and the
    /// direction-side dimensions), calibrates the cost of each admissible
    /// tier from timed warm applies through `calib` (reused across calls,
    /// so repeat retunes only refine), and picks the cheapest admissible
    /// configuration. See [`crate::autotune`] for the selection rule.
    ///
    /// Errors leave the current configuration in place.
    fn retune(
        &mut self,
        dir: OpDirection,
        budget: f64,
        params: &crate::error_analysis::BoundParams,
        weights: &crate::autotune::PhaseWeights,
        calib: &mut crate::autotune::TierCalibration,
    ) -> Result<crate::autotune::AutotuneChoice, OpError> {
        let choice = crate::autotune::autotune(self, dir, budget, params, weights, calib)?;
        self.set_config(choice.config);
        Ok(choice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-test realization: diag(2) on length-3 vectors.
    struct Doubler;

    impl LinearOperator for Doubler {
        fn shape(&self) -> OpShape {
            OpShape::new(3, 3)
        }
        fn apply_forward_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
            check_apply(self.shape(), OpDirection::Forward, input, out)?;
            for (o, &x) in out.iter_mut().zip(input) {
                *o = 2.0 * x;
            }
            Ok(())
        }
        fn apply_adjoint_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
            check_apply(self.shape(), OpDirection::Adjoint, input, out)?;
            for (o, &x) in out.iter_mut().zip(input) {
                *o = 2.0 * x;
            }
            Ok(())
        }
    }

    #[test]
    fn provided_methods_route_through_into() {
        let op = Doubler;
        assert_eq!(op.apply_forward(&[1.0, 2.0, 3.0]).unwrap(), vec![2.0, 4.0, 6.0]);
        let mut outs = vec![0.0; 6];
        op.apply_many_into(OpDirection::Forward, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &mut outs)
            .unwrap();
        assert_eq!(outs, vec![2.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn shape_errors_are_typed() {
        let op = Doubler;
        assert_eq!(
            op.apply_forward(&[1.0]).unwrap_err(),
            OpError::InputLength { dir: OpDirection::Forward, expected: 3, got: 1 }
        );
        let mut small = [0.0; 2];
        assert_eq!(
            op.apply_forward_into(&[1.0, 2.0, 3.0], &mut small).unwrap_err(),
            OpError::OutputLength { dir: OpDirection::Forward, expected: 3, got: 2 }
        );
        let mut outs = [0.0; 3];
        assert_eq!(
            op.apply_many_into(OpDirection::Adjoint, &[0.0; 4], &mut outs).unwrap_err(),
            OpError::RaggedBatch { dir: OpDirection::Adjoint, got: 4, stride: 3 }
        );
        assert_eq!(
            op.apply_many_into(OpDirection::Forward, &[0.0; 6], &mut outs).unwrap_err(),
            OpError::BatchMismatch { dir: OpDirection::Forward, expected: 6, got: 3 }
        );
    }

    #[test]
    fn errors_format_helpfully() {
        let e = OpError::InputLength { dir: OpDirection::Forward, expected: 6, got: 5 };
        assert!(e.to_string().contains("forward input has 5"));
        let c = ConfigError::ColumnLength { expected: 12, got: 7 };
        assert!(c.to_string().contains("expected nt*nd*nm = 12"));
        let s: String = c.into();
        assert!(s.contains('7'));
    }

    #[test]
    fn trait_objects_and_references_work() {
        let op = Doubler;
        let dynop: &dyn LinearOperator = &op;
        assert_eq!(dynop.shape(), OpShape::new(3, 3));
        assert_eq!(dynop.apply_adjoint(&[1.0; 3]).unwrap(), vec![2.0; 3]);
        // The blanket &T impl lets generic consumers borrow.
        fn rows<L: LinearOperator>(l: L) -> usize {
            l.shape().rows
        }
        assert_eq!(rows(&op), 3);
        // Owned smart pointers implement the trait too — the service
        // registry relies on Arc<dyn LinearOperator + Send + Sync>.
        let boxed: Box<dyn LinearOperator> = Box::new(Doubler);
        assert_eq!(rows(&boxed), 3);
        let shared: std::sync::Arc<dyn LinearOperator + Send + Sync> = std::sync::Arc::new(Doubler);
        assert_eq!(shared.apply_forward(&[1.0; 3]).unwrap(), vec![2.0; 3]);
    }

    #[test]
    fn error_hierarchy_converts_and_chains() {
        // ConfigError lifts into OpError, and source() walks back down.
        let c = ConfigError::ZeroDimension { what: "nt" };
        let o: OpError = c.clone().into();
        assert_eq!(o, OpError::Config(c.clone()));
        assert!(o.to_string().contains("operator construction failed"));
        assert!(o.to_string().contains("nt"));
        use std::error::Error;
        let src = o.source().expect("Config wraps a source");
        assert_eq!(src.to_string(), c.to_string());
        assert!(OpError::Internal("x").source().is_none());
    }

    #[test]
    fn io_lens_by_direction() {
        let s = OpShape::new(2, 5);
        assert_eq!(s.io_lens(OpDirection::Forward), (5, 2));
        assert_eq!(s.io_lens(OpDirection::Adjoint), (2, 5));
    }
}
