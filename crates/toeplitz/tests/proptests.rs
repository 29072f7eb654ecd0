//! Property-based tests for the multi-level Toeplitz operators, across
//! randomly drawn shapes of one to four levels, all four precision
//! tiers, and batch sizes 1–8:
//!
//! * the embedding matches the dense reference assembly in double, any
//!   shape and level count, both directions;
//! * mixed-tier configurations stay within the documented per-tier
//!   relative budgets ([`fftmatvec_toeplitz::tier_rel_budget`]);
//! * the batched apply is bit-identical to per-item applies;
//! * nested FFT plans (`planWhole`/`planBlock`) resolve through the
//!   process-wide cache, so independently built operators share handles
//!   (`Arc::ptr_eq`).

use std::sync::Arc;

use fftmatvec_core::{LinearOperator, OpDirection, PrecisionConfig};
use fftmatvec_numeric::vecmath::rel_l2_error;
use fftmatvec_numeric::SplitMix64;
use fftmatvec_toeplitz::{
    narrowest_tier, tier_rel_budget, NdCirculantEmbedding, ToeplitzGenerator, TwoLevelToeplitz,
};
use proptest::prelude::*;

/// Generator over `levels` with the main diagonal lifted, keeping the
/// dense reference well scaled so relative-error comparisons are
/// meaningful.
fn lifted_gen(levels: &[(usize, usize)], seed: u64) -> ToeplitzGenerator {
    let mut diags = vec![0.0; levels.iter().map(|&(r, c)| r + c - 1).product()];
    SplitMix64::new(seed).fill_uniform(&mut diags, -1.0, 1.0);
    let main = levels.iter().fold(0, |flat, &(r, c)| flat * (r + c - 1) + c - 1);
    diags[main] += 4.0;
    ToeplitzGenerator::new(levels, diags).unwrap()
}

fn two_level_gen(outer: (usize, usize), inner: (usize, usize), seed: u64) -> ToeplitzGenerator {
    lifted_gen(&[outer, inner], seed)
}

/// Dense oracle apply in the requested direction (`y = A·x` or
/// `y = Aᵀ·x` — the generator is real, so adjoint is transpose).
fn dense_apply(gen: &ToeplitzGenerator, dir: OpDirection, x: &[f64]) -> Vec<f64> {
    let a = gen.dense();
    let (rows, cols) = (gen.rows(), gen.cols());
    match dir {
        OpDirection::Forward => {
            let mut y = vec![0.0; rows];
            for r in 0..rows {
                y[r] = (0..cols).map(|c| a[r * cols + c] * x[c]).sum();
            }
            y
        }
        OpDirection::Adjoint => {
            let mut y = vec![0.0; cols];
            for c in 0..cols {
                y[c] = (0..rows).map(|r| a[r * cols + c] * x[r]).sum();
            }
            y
        }
    }
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut v = vec![0.0; n];
    SplitMix64::new(seed).fill_uniform(&mut v, -1.0, 1.0);
    v
}

/// The tier sweep: one configuration per tier (pad/unpad held in double
/// so the grid tiers dominate the error), plus the paper's mixed shape.
const TIER_CONFIGS: [&str; 5] = ["ddddd", "sssss", "dssdd", "dhhdd", "dbbdd"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full embedding == dense reference in double, both directions, any
    /// two-level shape — including degenerate extents of 1.
    #[test]
    fn full_matches_dense(
        or in 1usize..5, oc in 1usize..5,
        ir in 1usize..7, ic in 1usize..7,
        seed in 0u64..u64::MAX,
    ) {
        let gen = two_level_gen((or, oc), (ir, ic), seed);
        let op = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
        for dir in [OpDirection::Forward, OpDirection::Adjoint] {
            let (in_len, out_len) = op.shape().io_lens(dir);
            let x = random_vec(in_len, seed ^ 1);
            let mut y = vec![0.0; out_len];
            op.apply_into(dir, &x, &mut y).unwrap();
            prop_assert!(rel_l2_error(&y, &dense_apply(&gen, dir, &x)) < 1e-12);
        }
    }

    /// One to four rectangular levels through the N-d entry point ==
    /// dense reference in double, both directions: every level count
    /// runs the one engine, head boxes differing by direction.
    #[test]
    fn random_rectangular_levels_match_dense(
        count in 1usize..5,
        extents in prop::collection::vec((1usize..5, 1usize..5), 4),
        seed in 0u64..u64::MAX,
    ) {
        let gen = lifted_gen(&extents[..count], seed);
        let op = NdCirculantEmbedding::builder(gen.clone()).build().unwrap();
        for dir in [OpDirection::Forward, OpDirection::Adjoint] {
            let (in_len, out_len) = op.shape().io_lens(dir);
            let x = random_vec(in_len, seed ^ 2);
            let mut y = vec![0.0; out_len];
            op.apply_into(dir, &x, &mut y).unwrap();
            let err = rel_l2_error(&y, &dense_apply(&gen, dir, &x));
            prop_assert!(err < 1e-12, "{:?} {dir:?}: {err:e}", &extents[..count]);
        }
    }

    /// Every tier configuration stays within its documented relative
    /// budget against the dense oracle, both directions.
    #[test]
    fn tiers_within_budget(
        or in 1usize..4, oc in 1usize..4,
        ir in 2usize..6, ic in 2usize..6,
        cfg_idx in 0usize..TIER_CONFIGS.len(),
        seed in 0u64..u64::MAX,
    ) {
        let cfg: PrecisionConfig = TIER_CONFIGS[cfg_idx].parse().unwrap();
        let gen = two_level_gen((or, oc), (ir, ic), seed);
        let op = TwoLevelToeplitz::builder(gen.clone()).precision(cfg).build().unwrap();
        let budget = tier_rel_budget(narrowest_tier(cfg));
        for dir in [OpDirection::Forward, OpDirection::Adjoint] {
            let (in_len, out_len) = op.shape().io_lens(dir);
            let x = random_vec(in_len, seed ^ 3);
            let mut y = vec![0.0; out_len];
            op.apply_into(dir, &x, &mut y).unwrap();
            let err = rel_l2_error(&y, &dense_apply(&gen, dir, &x));
            prop_assert!(err < budget, "{cfg} {dir:?} err {err:e} vs budget {budget:e}");
        }
    }

    /// Batched apply is bit-identical to per-item applies for any batch
    /// size 1–8, under any tier configuration.
    #[test]
    fn batch_matches_singles(
        or in 1usize..4, oc in 1usize..4,
        ir in 1usize..6, ic in 1usize..6,
        batch in 1usize..9,
        cfg_idx in 0usize..TIER_CONFIGS.len(),
        seed in 0u64..u64::MAX,
    ) {
        let cfg: PrecisionConfig = TIER_CONFIGS[cfg_idx].parse().unwrap();
        let gen = two_level_gen((or, oc), (ir, ic), seed);
        let op = TwoLevelToeplitz::builder(gen).precision(cfg).build().unwrap();
        for dir in [OpDirection::Forward, OpDirection::Adjoint] {
            let (in_len, out_len) = op.shape().io_lens(dir);
            let inputs = random_vec(batch * in_len, seed ^ 4);
            let mut outputs = vec![f64::NAN; batch * out_len];
            op.apply_many_into(dir, &inputs, &mut outputs).unwrap();
            for b in 0..batch {
                let mut single = vec![0.0; out_len];
                op.apply_into(dir, &inputs[b * in_len..(b + 1) * in_len], &mut single).unwrap();
                prop_assert_eq!(&outputs[b * out_len..(b + 1) * out_len], &single[..]);
            }
        }
    }

    /// Nested plans resolve through the process-wide cache: two
    /// independently built operators over the same shape share their
    /// `planWhole`/`planBlock` handles, and the N-d realization over the
    /// same generator shares them too.
    #[test]
    fn nested_plans_are_cache_shared(
        or in 1usize..5, oc in 1usize..5,
        ir in 1usize..7, ic in 1usize..7,
        seed in 0u64..u64::MAX,
    ) {
        let gen = two_level_gen((or, oc), (ir, ic), seed);
        let a = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
        let b = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
        prop_assert!(Arc::ptr_eq(&a.plan_whole(), &b.plan_whole()));
        prop_assert!(Arc::ptr_eq(&a.plan_block(), &b.plan_block()));
        // The general N-d realization is the same pipeline: same bits.
        let x = random_vec(oc * ic, seed ^ 5);
        let nd = NdCirculantEmbedding::builder(gen).build().unwrap();
        prop_assert_eq!(nd.apply_forward(&x).unwrap(), a.apply_forward(&x).unwrap());
    }
}
