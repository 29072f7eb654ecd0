//! # fftmatvec-toeplitz — multi-level Toeplitz operators
//!
//! Extends the workspace's 1-level block-triangular Toeplitz pipeline to
//! **multi-level** (block-recursive) Toeplitz matrices — block-Toeplitz
//! with Toeplitz blocks and deeper nestings — via multi-level circulant
//! embedding. The matvec becomes
//! `extract ∘ IFFTN ∘ (⊙ ĉ) ∘ FFTN ∘ pad`, run as the same five
//! mixed-precision phases as `FftMatvec` (Pad / Fft / Sbgemv / Ifft /
//! Unpad) under a runtime [`PrecisionConfig`], so the Eq. 6 error bound,
//! the Pareto sweeps, and the online autotuner apply unchanged.
//!
//! The generator is real, so the pipeline is too: the transforms are
//! real-input N-d transforms ([`fftmatvec_fft::RealNdFft`] — R2C on the
//! innermost axis, half the spectrum stored and multiplied), and they
//! never transform a zero the embedding put there — each axis pass runs
//! only over the rows that can be non-zero going in, or that the output
//! reads coming out. Pad and Unpad are the innermost transform's first
//! and last passes: it reads the input vector's rows in place and stores
//! the output vector's kept samples, so an apply grows the input's head
//! box one axis at a time and materializes neither padded rows nor a
//! `∏ m_l` grid.
//! The symbol is stored in the layout the forward pass leaves the
//! spectrum in (last axis rotated to the front, see the engine's docs),
//! which spares one full rotation per direction.
//!
//! Two entry points to that one pipeline, both `LinearOperator`s:
//!
//! * [`NdCirculantEmbedding`] — any level count `1 ≤ L ≤`
//!   [`MAX_LEVELS`].
//! * [`TwoLevelToeplitz`] — the `L = 2` case (EM scattering, acoustics,
//!   MRI system matrices), which adds the nested-plan accessors below.
//!
//! Nested plans follow the fastmat `planWhole`/`planBlock` pattern: each
//! grid axis resolves its FFT plan through the process-wide
//! `(n, precision, kind)` cache, so the inner-level real plan of a
//! two-level operator is pointer-identical to that of any 1-level
//! pipeline of the same length ([`TwoLevelToeplitz::plan_whole`] /
//! [`TwoLevelToeplitz::plan_block`]).
//!
//! Both types are thin instantiations of the workspace's one tiered
//! spectral pipeline (`fftmatvec_core::spectral`): this crate writes only
//! the [`operator::PointwiseKernel`] — the N-d FFT engines (with the pad
//! and the unpad folded in) and the pointwise symbol multiply — and the
//! symbol resolution its builders do. The builder setters (`precision`,
//! `backend`, `error_budget[_for]`), engine retention across
//! `set_config`, pooled zero-allocation workspaces, budget resolution,
//! batched applies and the diagnostics accessors are the shared core's
//! (the public types deref to it), and the expensive symbol spectrum is
//! shareable across precision variants via `Arc` (`builder_arc`).

pub mod generator;
pub mod operator;
pub mod symbol;

pub use generator::{LevelDims, ToeplitzGenerator, MAX_LEVELS};
pub use operator::{
    NdCirculantEmbedding, NdCirculantEmbeddingBuilder, TwoLevelToeplitz, TwoLevelToeplitzBuilder,
};
pub use symbol::ToeplitzSymbol;

use fftmatvec_core::{MatvecPhase, PrecisionConfig};
use fftmatvec_numeric::Precision;

/// Documented per-tier relative-ℓ² budgets for differential agreement
/// between the FFT path and the dense reference on well-conditioned
/// problems (`κ` near 1). These are the contract the crate's differential tests
/// and the bench gate assert, with a wide safety margin over each tier's
/// ε so they hold across shapes, directions, and SIMD backends:
///
/// | tier | ε | budget |
/// |------|---|--------|
/// | `d`  | 2.2e-16 | 1e-12 |
/// | `s`  | 1.2e-7  | 2e-4  |
/// | `h`  | 9.8e-4  | 5e-2  |
/// | `b`  | 7.8e-3  | 2e-1  |
pub fn tier_rel_budget(p: Precision) -> f64 {
    match p {
        Precision::Double => 1e-12,
        Precision::Single => 2e-4,
        Precision::Half => 5e-2,
        Precision::BFloat16 => 2e-1,
    }
}

/// The least accurate tier a configuration touches — **by ε**, not by
/// the storage-lattice order (bf16 stores fewer significand bits than
/// f16 despite sitting above it in the lattice). The differential
/// budget of a mixed configuration is
/// [`tier_rel_budget`]`(narrowest_tier(cfg))`.
pub fn narrowest_tier(cfg: PrecisionConfig) -> Precision {
    MatvecPhase::ALL.iter().map(|&ph| cfg.phase(ph)).fold(Precision::Double, |acc, p| {
        if p.epsilon() > acc.epsilon() {
            p
        } else {
            acc
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrowest_tier_orders_by_epsilon_not_lattice() {
        let cfg: PrecisionConfig = "dbhdd".parse().unwrap();
        // bf16's ε (2⁻⁷) exceeds f16's (2⁻¹⁰): bf16 is the narrowest.
        assert_eq!(narrowest_tier(cfg), Precision::BFloat16);
        assert_eq!(narrowest_tier(PrecisionConfig::all_double()), Precision::Double);
        let s: PrecisionConfig = "dssdd".parse().unwrap();
        assert_eq!(narrowest_tier(s), Precision::Single);
    }

    #[test]
    fn budgets_are_monotone_in_epsilon() {
        let mut tiers =
            [Precision::Double, Precision::Single, Precision::Half, Precision::BFloat16];
        tiers.sort_by(|a, b| a.epsilon().total_cmp(&b.epsilon()));
        for w in tiers.windows(2) {
            assert!(tier_rel_budget(w[0]) < tier_rel_budget(w[1]));
            // Budget leaves real headroom over the tier's own ε.
            assert!(tier_rel_budget(w[0]) > w[0].epsilon());
        }
    }
}
