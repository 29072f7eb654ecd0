//! The service layer's typed rejection surface — the top of the
//! workspace's error hierarchy `ServiceError` → [`OpError`] →
//! [`ConfigError`].
//!
//! Every layer converts upward via `From`, so a handler at the service
//! boundary matches one type no matter where the failure originated:
//! a malformed request shape surfaces as [`ServiceError::Shape`], an
//! operator that failed to build surfaces as `Shape(OpError::Config(..))`,
//! and `source()` walks the chain back down for logging.

use std::time::Duration;

use fftmatvec_core::{ConfigError, OpError};

/// Why the service rejected (or failed) a request. Each variant is a
/// distinct caller-visible contract; none of them panic the worker.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// No operator is registered under the requested id.
    UnknownOperator(String),
    /// Admission control: the operator's pending queue is at capacity.
    /// Back off and retry — accepting the request would only grow the
    /// latency of everything behind it.
    Overloaded {
        /// Operator whose lane is full.
        operator: String,
        /// Requests already queued on that lane.
        queued: usize,
        /// The configured per-lane bound.
        capacity: usize,
    },
    /// The request's deadline passed before a batch window picked it up;
    /// the computation was never run.
    DeadlineExceeded {
        /// Operator the request was queued for.
        operator: String,
        /// How long the request sat in the queue before expiring.
        waited: Duration,
    },
    /// The request (or the operator applying it) failed shape/config
    /// validation; wraps the underlying [`OpError`].
    Shape(OpError),
    /// The operator panicked while applying this request's batch. The
    /// worker caught the panic; the service keeps serving.
    WorkerPanicked {
        /// Operator whose apply panicked.
        operator: String,
    },
    /// A budget-routed submission carried a non-finite or non-positive
    /// error budget; no configuration can promise it.
    InvalidBudget {
        /// The rejected budget.
        budget: f64,
    },
    /// The input vector holds a NaN or ±∞. The request is refused at
    /// submission and never shares a batch window.
    NonFiniteInput {
        /// Operator the request was submitted to.
        operator: String,
        /// Index of the first non-finite entry.
        index: usize,
    },
    /// A budget-routed submission targeted an operator that was
    /// registered without autotune support (`register` / `register_fft`
    /// / `register_toeplitz` rather than `register_fft_tunable` /
    /// `register_toeplitz_tunable`).
    NotTunable {
        /// The operator that cannot retune.
        operator: String,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownOperator(id) => {
                write!(f, "no operator registered under id {id:?}")
            }
            ServiceError::Overloaded { operator, queued, capacity } => {
                write!(f, "operator {operator:?} overloaded: {queued}/{capacity} queued")
            }
            ServiceError::DeadlineExceeded { operator, waited } => {
                write!(
                    f,
                    "deadline exceeded after {:.1} ms queued for operator {operator:?}",
                    waited.as_secs_f64() * 1e3
                )
            }
            ServiceError::Shape(e) => write!(f, "request rejected: {e}"),
            ServiceError::WorkerPanicked { operator } => {
                write!(f, "operator {operator:?} panicked while serving the batch")
            }
            ServiceError::InvalidBudget { budget } => {
                write!(f, "error budget {budget} must be finite and positive")
            }
            ServiceError::NonFiniteInput { operator, index } => {
                write!(f, "input for operator {operator:?} is not finite at index {index}")
            }
            ServiceError::NotTunable { operator } => {
                write!(f, "operator {operator:?} was not registered as tunable")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OpError> for ServiceError {
    fn from(e: OpError) -> ServiceError {
        ServiceError::Shape(e)
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> ServiceError {
        ServiceError::Shape(OpError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_are_informative() {
        let e = ServiceError::Overloaded { operator: "tomo".into(), queued: 9, capacity: 8 };
        assert!(e.to_string().contains("9/8"));
        let e = ServiceError::DeadlineExceeded {
            operator: "tomo".into(),
            waited: Duration::from_millis(12),
        };
        assert!(e.to_string().contains("12.0 ms"));
        assert!(ServiceError::UnknownOperator("x".into()).to_string().contains("\"x\""));
    }

    #[test]
    fn hierarchy_converts_from_every_layer() {
        // OpError lifts directly...
        let op_err = OpError::Internal("phase-2 tier mismatch");
        let s: ServiceError = op_err.clone().into();
        assert_eq!(s, ServiceError::Shape(op_err.clone()));
        assert_eq!(s.source().unwrap().to_string(), op_err.to_string());
        // ...and ConfigError lifts through OpError::Config, so source()
        // chains two levels deep.
        let cfg_err = ConfigError::ZeroDimension { what: "nt" };
        let s: ServiceError = cfg_err.clone().into();
        let mid = s.source().expect("OpError level");
        let bottom = mid.source().expect("ConfigError level");
        assert_eq!(bottom.to_string(), cfg_err.to_string());
    }
}
