//! Coalescing is semantically invisible, bit for bit.
//!
//! The service's whole premise is that merging concurrent single-vector
//! submissions into one `apply_many_into` window changes *when* work
//! runs, never *what* it computes. These properties pin that down: for
//! every precision tier (f16/bf16/f32/f64) and one mixed configuration,
//! several operator shapes, and batch sizes 1–33 (one register panel or
//! several, whole or with a ragged tail, and past one 32-request window),
//! a wave of requests coalesced into exactly one batch window — driven
//! through the bundled futures executor — must return exactly the bits of
//! a freshly built identical pipeline applying each vector alone through
//! `apply_into`. This leans on (and re-verifies)
//! the PR-5 determinism contract: pooled batched execution equals the
//! sequential per-item loop at any thread count. A second property sends
//! the wave to a lane that no longer lingers, where the window
//! boundaries are up to the scheduler, and demands the same bits.

use std::sync::Arc;
use std::time::Duration;

use fftmatvec_core::{
    BlockToeplitzOperator, FftMatvec, LinearOperator, OpDirection, PrecisionConfig,
};
use fftmatvec_numeric::SplitMix64;
use fftmatvec_service::{block_on, join_all, OperatorRegistry, Service, ServiceConfig};
use proptest::prelude::*;

const TIERS: [&str; 5] = ["hhhhh", "bbbbb", "sssss", "ddddd", "dssdd"];
const DIMS: [(usize, usize, usize); 3] = [(2, 3, 16), (3, 2, 32), (4, 4, 64)];

fn build_pipeline(nd: usize, nm: usize, nt: usize, tier: &str, seed: u64) -> FftMatvec {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, -1.0, 1.0);
    let op = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap();
    FftMatvec::builder(op).precision(tier.parse::<PrecisionConfig>().unwrap()).build().unwrap()
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: bit mismatch at element {i}: got {g:?}, want {w:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One coalesced window == per-item sequential applies, exactly.
    #[test]
    fn coalesced_window_is_bit_identical_to_sequential(
        tier_ix in 0usize..5,
        dims_ix in 0usize..3,
        batch in 1usize..34,
        dir_ix in 0usize..2,
        seed in 0u64..1u64 << 16,
    ) {
        let tier = TIERS[tier_ix];
        let (nd, nm, nt) = DIMS[dims_ix];
        let dir = [OpDirection::Forward, OpDirection::Adjoint][dir_ix];

        // Served instance and reference instance are built identically;
        // plan construction and precision casting are deterministic, so
        // any divergence below is the service's fault.
        let registry = Arc::new(OperatorRegistry::new());
        registry
            .register_fft("op", {
                let mut rng = SplitMix64::new(seed);
                let mut col = vec![0.0; nt * nd * nm];
                rng.fill_uniform(&mut col, -1.0, 1.0);
                FftMatvec::builder(
                    BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap(),
                )
                .precision(tier.parse::<PrecisionConfig>().unwrap())
            })
            .unwrap();
        let reference = build_pipeline(nd, nm, nt, tier, seed);

        let (in_len, out_len) = reference.shape().io_lens(dir);
        let inputs: Vec<Vec<f64>> = (0..batch)
            .map(|b| {
                let mut rng = SplitMix64::new(seed ^ (0xB0057 + b as u64));
                let mut x = vec![0.0; in_len];
                rng.fill_uniform(&mut x, -1.0, 1.0);
                x
            })
            .collect();

        // max_batch == wave size and a long max_delay force the whole
        // wave into exactly one window (the lane only becomes ready when
        // the last submission lands).
        let service = Service::new(
            Arc::clone(&registry),
            ServiceConfig {
                max_batch: batch,
                max_delay: Duration::from_secs(30),
                ..Default::default()
            },
        );
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| service.submit("op", dir, x.clone()).unwrap())
            .collect();
        let outputs = block_on(join_all(tickets));

        let stats = service.stats();
        prop_assert_eq!(stats.batches, 1, "wave must coalesce into one window");
        prop_assert_eq!(stats.batched_requests, batch as u64);
        prop_assert_eq!(stats.completed, batch as u64);

        let mut want = vec![0.0; out_len];
        for (b, (x, got)) in inputs.iter().zip(outputs).enumerate() {
            let got = got.unwrap();
            reference.apply_into(dir, x, &mut want).unwrap();
            assert_bits_eq(
                &got,
                &want,
                &format!("tier {tier} dims {nd}x{nm}x{nt} {dir:?} item {b}/{batch}"),
            );
        }
    }

    /// A lane that has stopped lingering hands the worker whatever it
    /// holds, so a wave submitted without waiting is cut wherever the
    /// worker happens to wake. However it is cut, every response carries
    /// the solo bits and the counters add up.
    #[test]
    fn flipped_lane_wave_is_bit_identical_however_it_is_cut(
        tier_ix in 0usize..5,
        dims_ix in 0usize..3,
        wave in 1usize..34,
        dir_ix in 0usize..2,
        seed in 0u64..1u64 << 16,
    ) {
        let tier = TIERS[tier_ix];
        let (nd, nm, nt) = DIMS[dims_ix];
        let dir = [OpDirection::Forward, OpDirection::Adjoint][dir_ix];

        let registry = Arc::new(OperatorRegistry::new());
        registry.register("op", Arc::new(build_pipeline(nd, nm, nt, tier, seed)));
        let reference = build_pipeline(nd, nm, nt, tier, seed);
        let (in_len, out_len) = reference.shape().io_lens(dir);
        let inputs: Vec<Vec<f64>> = (0..wave + 2)
            .map(|b| {
                let mut rng = SplitMix64::new(seed ^ (0xF11B + b as u64));
                let mut x = vec![0.0; in_len];
                rng.fill_uniform(&mut x, -1.0, 1.0);
                x
            })
            .collect();

        // Two lone requests, each waited for: the first waits out the
        // default 200 µs window alone, so the second is already
        // dispatched at once.
        let service = Service::new(Arc::clone(&registry), ServiceConfig::default());
        let mut outputs: Vec<_> = inputs[..2]
            .iter()
            .map(|x| service.submit("op", dir, x.clone()).unwrap().wait())
            .collect();
        let stats = service.stats();
        prop_assert_eq!((stats.closed_timer, stats.closed_alone), (1, 1));

        let tickets: Vec<_> = inputs[2..]
            .iter()
            .map(|x| service.submit("op", dir, x.clone()).unwrap())
            .collect();
        outputs.extend(block_on(join_all(tickets)));

        let stats = service.stats();
        prop_assert_eq!(stats.batched_requests, wave as u64 + 2);
        prop_assert_eq!(stats.completed, wave as u64 + 2);
        prop_assert_eq!(
            stats.closed_full + stats.closed_timer + stats.closed_alone + stats.closed_drain,
            stats.batches
        );

        let mut want = vec![0.0; out_len];
        for (b, (x, got)) in inputs.iter().zip(outputs).enumerate() {
            let got = got.unwrap();
            reference.apply_into(dir, x, &mut want).unwrap();
            assert_bits_eq(
                &got,
                &want,
                &format!("tier {tier} dims {nd}x{nm}x{nt} {dir:?} item {b} of 2 + {wave}"),
            );
        }
    }
}
