//! Pooled tree reductions == sequential tree reductions, bit for bit.
//!
//! `tree_reduce_sum` and `tree_reduce_sum_in_place` run their two
//! subtrees concurrently above a work threshold. Only the *scheduling*
//! may change — the summation tree (largest power of two below `p` on
//! the left) is fixed — so the
//! result bits must match a reference reduction written here from
//! scratch, sequentially, with no shared code. Cancellation-prone inputs
//! spanning ten orders of magnitude make any association drift visible
//! in the bits.

use fftmatvec_comm::collectives::{tree_reduce_sum, tree_reduce_sum_in_place};
use fftmatvec_numeric::SplitMix64;
use proptest::prelude::*;

/// Independent reference: recursive pairwise tree with the documented
/// recursive-halving split rule (left = smallest power of two ≥ n/2,
/// capped at n−1), sequential by construction.
fn reference_tree_sum(parts: &[Vec<f64>]) -> Vec<f64> {
    match parts.len() {
        0 => panic!("empty rank set"),
        1 => parts[0].clone(),
        n => {
            let split = {
                let mut s = 1usize;
                while s < n / 2 {
                    s *= 2;
                }
                s.min(n - 1)
            };
            let left = reference_tree_sum(&parts[..split]);
            let right = reference_tree_sum(&parts[split..]);
            left.iter().zip(&right).map(|(a, b)| a + b).collect()
        }
    }
}

/// Rank buffers with magnitudes spread over ~10 decades and both signs.
fn rank_inputs(parts: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed);
    (0..parts)
        .map(|r| {
            (0..len)
                .map(|_| {
                    let mag = 10f64.powi((r % 11) as i32 - 5);
                    rng.uniform(-1.0, 1.0) * mag
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both public reductions agree bitwise with the from-scratch
    /// sequential reference, at sizes straddling the parallel
    /// threshold (parts·len up to 20·4000 = 80000 ≫ 2¹⁴).
    #[test]
    fn pooled_reductions_are_bitwise_the_reference(
        parts in 1usize..=20,
        len in 1usize..=4000,
        seed in 0u64..u64::MAX,
    ) {
        let inputs = rank_inputs(parts, len, seed);
        let want = reference_tree_sum(&inputs);

        let got = tree_reduce_sum(&inputs);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(g.to_bits() == w.to_bits(),
                "tree_reduce_sum bit mismatch at {i}: {g} vs {w}");
        }

        let mut flat: Vec<f64> = inputs.concat();
        tree_reduce_sum_in_place(&mut flat, len);
        for (i, (g, w)) in flat[..len].iter().zip(&want).enumerate() {
            prop_assert!(g.to_bits() == w.to_bits(),
                "tree_reduce_sum_in_place bit mismatch at {i}: {g} vs {w}");
        }
    }
}

/// Deterministic repetition: the pooled reduction returns the same bits
/// every run (scheduling noise must not leak into the result).
#[test]
fn pooled_reduction_is_repeatable() {
    let inputs = rank_inputs(16, 5000, 42);
    let first = tree_reduce_sum(&inputs);
    for _ in 0..10 {
        let again = tree_reduce_sum(&inputs);
        assert!(
            first.iter().zip(&again).all(|(a, b)| a.to_bits() == b.to_bits()),
            "tree_reduce_sum produced different bits across runs"
        );
    }
}
