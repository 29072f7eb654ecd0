//! Backend identity, selection and construction.
//!
//! [`BackendKind`] names the backends; [`BackendKind::resolve`]
//! implements the selection precedence **builder > environment > default**
//! and [`create`] turns the resolved kind into a live backend.
//! The environment override [`BACKEND_ENV`] mirrors `FFTMATVEC_SIMD` and is
//! read on every resolution (never cached), so test harnesses — the
//! determinism gate in particular — can set it per child process.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::cpu::CpuPool;
use crate::error::BackendError;
use crate::simulated::SimulatedDevice;
use crate::traits::DeviceBackend;

/// Environment variable selecting the default backend when the builder
/// does not name one explicitly. Accepted values: the
/// [`BackendKind::name`]s of [`BackendKind::ALL`] (case-insensitive).
/// Unknown values are a typed [`BackendError::UnknownBackend`] at build
/// time.
pub const BACKEND_ENV: &str = "FFTMATVEC_BACKEND";

/// Which device backend executes the pipeline primitives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BackendKind {
    /// The rayon-pool + SIMD CPU kernels — bit-identical to the direct
    /// call path and the default.
    #[default]
    Cpu,
    /// CPU execution (same bits as [`BackendKind::Cpu`]) plus modeled
    /// device timings from the `fftmatvec-gpu` cost model.
    Simulated,
}

impl BackendKind {
    /// Every backend, in the order the unknown-name error lists them.
    /// Parsing and that error both read this table through
    /// [`name`](Self::name).
    pub const ALL: [BackendKind; 2] = [BackendKind::Cpu, BackendKind::Simulated];

    /// Stable lowercase name (the value accepted by [`BACKEND_ENV`]).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Cpu => "cpu",
            BackendKind::Simulated => "simulated",
        }
    }

    /// Read (and validate) the [`BACKEND_ENV`] override. `Ok(None)` when
    /// unset or blank; `Err` when set to an unknown name.
    pub fn from_env() -> Result<Option<Self>, BackendError> {
        match std::env::var(BACKEND_ENV) {
            Ok(s) if !s.trim().is_empty() => s.parse().map(Some),
            _ => Ok(None),
        }
    }

    /// Resolve the effective backend: an explicit builder choice wins,
    /// then the environment override, then [`BackendKind::Cpu`].
    pub fn resolve(explicit: Option<BackendKind>) -> Result<BackendKind, BackendError> {
        if let Some(kind) = explicit {
            return Ok(kind);
        }
        Ok(Self::from_env()?.unwrap_or_default())
    }
}

impl FromStr for BackendKind {
    type Err = BackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name = s.trim();
        Self::ALL
            .into_iter()
            .find(|kind| kind.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| BackendError::UnknownBackend { name: name.to_string() })
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Construct a live backend for `kind`. Each call returns a fresh
/// instance (fresh transfer ledger / modeled clock) so operators never
/// alias accounting state.
pub fn create(kind: BackendKind) -> Arc<dyn DeviceBackend> {
    match kind {
        BackendKind::Cpu => Arc::new(CpuPool::new()),
        BackendKind::Simulated => Arc::new(SimulatedDevice::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.name().to_ascii_uppercase().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!("  Simulated ".parse::<BackendKind>().unwrap(), BackendKind::Simulated);
        let names: Vec<&str> = BackendKind::ALL.map(BackendKind::name).to_vec();
        assert_eq!(names, ["cpu", "simulated"]);
        // `portability` names the hipify crate, not a backend.
        assert!("portability".parse::<BackendKind>().is_err());
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let err = "tpu".parse::<BackendKind>().unwrap_err();
        assert_eq!(err, BackendError::UnknownBackend { name: "tpu".into() });
    }

    #[test]
    fn explicit_choice_beats_everything() {
        assert_eq!(
            BackendKind::resolve(Some(BackendKind::Simulated)).unwrap(),
            BackendKind::Simulated
        );
    }

    #[test]
    fn default_is_cpu() {
        assert_eq!(BackendKind::default(), BackendKind::Cpu);
    }

    #[test]
    fn cpu_and_simulated_construct_fresh_instances() {
        let a = create(BackendKind::Cpu);
        let b = create(BackendKind::Cpu);
        assert_eq!(a.kind(), BackendKind::Cpu);
        a.record_upload(64);
        assert_eq!(a.transfers().bytes_up, 64);
        assert_eq!(b.transfers().bytes_up, 0, "ledgers must not alias");
        let sim = create(BackendKind::Simulated);
        assert_eq!(sim.kind(), BackendKind::Simulated);
        assert!(sim.modeled_times().is_some());
    }
}
