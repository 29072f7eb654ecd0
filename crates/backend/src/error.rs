//! Typed backend errors.
//!
//! Every failure mode of backend selection and primitive dispatch is a
//! [`BackendError`] variant — selection of an unknown backend is a
//! build-time error, never a panic. The variant set is
//! `#[non_exhaustive]` so real GPU backends can add failure modes (device
//! OOM, driver loss) without a major version bump. `fftmatvec-core` lifts
//! this type into its `OpError`/`ConfigError` chains with `source()`
//! threading.

use std::fmt;

use fftmatvec_numeric::Precision;

use crate::kind::BackendKind;

/// What went wrong inside (or while selecting) a device backend.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum BackendError {
    /// A backend name (builder string or `FFTMATVEC_BACKEND` value) did
    /// not match any [`BackendKind`].
    UnknownBackend {
        /// The name as given.
        name: String,
    },
    /// A primitive was handed a buffer in a different precision tier than
    /// the one it was planned for.
    TierMismatch {
        /// Which primitive rejected the call.
        what: &'static str,
        /// The tier the handle was created for.
        expected: Precision,
        /// The tier of the offending buffer.
        got: Precision,
    },
    /// A primitive was handed buffers of inconsistent lengths.
    LengthMismatch {
        /// Which length constraint was violated.
        what: &'static str,
        /// The required length (or divisor, for batched constraints).
        expected: usize,
        /// The length received.
        got: usize,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::UnknownBackend { name } => {
                let known = BackendKind::ALL.map(BackendKind::name).join(", ");
                write!(f, "unknown backend {name:?} (expected one of: {known})")
            }
            BackendError::TierMismatch { what, expected, got } => {
                write!(f, "{what}: buffer tier {got:?} does not match planned tier {expected:?}")
            }
            BackendError::LengthMismatch { what, expected, got } => {
                write!(f, "{what}: length {got} incompatible with {expected}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = BackendError::UnknownBackend { name: "tpu".into() };
        assert_eq!(e.to_string(), r#"unknown backend "tpu" (expected one of: cpu, simulated)"#);
        let e = BackendError::TierMismatch {
            what: "fft",
            expected: Precision::Double,
            got: Precision::Single,
        };
        assert!(e.to_string().contains("Single"));
    }

    #[test]
    fn is_a_std_error() {
        let e: Box<dyn std::error::Error> =
            Box::new(BackendError::UnknownBackend { name: "x".into() });
        assert!(e.source().is_none());
    }
}
