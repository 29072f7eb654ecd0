//! Property-based tests for the FFTMatvec pipeline invariants, across
//! randomly drawn shapes and all precision configurations:
//! exactness in double, linearity, causality, adjoint consistency,
//! distributed-vs-single agreement, and the Eq.-6 bound holding on
//! measured errors.

use fftmatvec_comm::ProcessGrid;
use fftmatvec_core::autotune::{admissible_configs, autotune};
use fftmatvec_core::error_analysis::{condition_estimate, error_bound, BoundParams};
use fftmatvec_core::{
    BlockToeplitzOperator, ConfigError, DirectMatvec, DistributedFftMatvec, FftMatvec,
    LinearOperator, OpDirection, OpError, PhaseWeights, PrecisionConfig, TierCalibration,
};
use fftmatvec_numeric::vecmath::rel_l2_error;
use fftmatvec_numeric::{Precision, SplitMix64};
use proptest::prelude::*;

fn operator(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, 0.0, 1.0);
    BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap()
}

fn stuffed(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0.0; n];
    rng.fill_uniform_stuffed(&mut v, 0.0, 1.0);
    v
}

/// Identity-plus-noise first block: κ(F̂) stays near 1, so the Eq. 6
/// pruning admits genuinely narrow configurations at loose budgets.
fn well_conditioned(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; nt * nd * nm];
    let mut noise = vec![0.0; nd * nm];
    rng.fill_uniform(&mut noise, -0.05, 0.05);
    for i in 0..nd {
        for k in 0..nm {
            col[i * nm + k] = noise[i * nm + k] + if i == k { 1.0 } else { 0.0 };
        }
    }
    BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FFT path == direct block convolution in double precision.
    #[test]
    fn fft_equals_direct(
        nd in 1usize..6,
        nm in 1usize..24,
        nt in 1usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let op = operator(nd, nm, nt, seed);
        let m = stuffed(nm * nt, seed ^ 1);
        let direct = DirectMatvec::new(&op).apply_forward(&m).unwrap();
        let mv = FftMatvec::builder(op).build().unwrap();
        let fft = mv.apply_forward(&m).unwrap();
        prop_assert!(rel_l2_error(&fft, &direct) < 1e-12);
    }

    /// ⟨F·m, d⟩ == ⟨m, F*·d⟩ in double precision, any shape.
    #[test]
    fn adjoint_identity(
        nd in 1usize..6,
        nm in 1usize..20,
        nt in 1usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let op = operator(nd, nm, nt, seed);
        let mv = FftMatvec::builder(op).build().unwrap();
        let mut rng = SplitMix64::new(seed ^ 2);
        let mut m = vec![0.0; nm * nt];
        let mut d = vec![0.0; nd * nt];
        rng.fill_uniform(&mut m, -1.0, 1.0);
        rng.fill_uniform(&mut d, -1.0, 1.0);
        let lhs: f64 = mv.apply_forward(&m).unwrap().iter().zip(&d).map(|(a, b)| a * b).sum();
        let rhs: f64 = m.iter().zip(&mv.apply_adjoint(&d).unwrap()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(rhs.abs()).max(1.0));
    }

    /// The operator is causal: output before the input's first active
    /// block is exactly zero (block lower-triangular structure) in every
    /// precision configuration.
    #[test]
    fn causality_all_configs(
        nd in 1usize..4,
        nm in 1usize..10,
        nt in 2usize..14,
        t0_frac in 0.0f64..1.0,
        cfg_idx in 0usize..32,
        seed in 0u64..u64::MAX,
    ) {
        let t0 = ((nt as f64 * t0_frac) as usize).min(nt - 1);
        let op = operator(nd, nm, nt, seed);
        let cfg = PrecisionConfig::all_configs()[cfg_idx];
        let mv = FftMatvec::builder(op).precision(cfg).build().unwrap();
        let mut m = vec![0.0; nm * nt];
        for k in 0..nm {
            m[t0 * nm + k] = 1.0 + k as f64;
        }
        let d = mv.apply_forward(&m).unwrap();
        for t in 0..t0 {
            for i in 0..nd {
                // FP32 FFT leaks a tiny amount across bins; bound by the
                // single-precision roundoff scale rather than exact zero.
                prop_assert!(d[t * nd + i].abs() < 2e-4 * (nm * nt) as f64,
                    "non-causal at t={t} (cfg {cfg})");
            }
        }
    }

    /// Measured error of any configuration obeys the Eq.-6 bound with a
    /// modest κ (positive uniform operators are well conditioned in the
    /// bulk; we use the measured κ proxy of 100).
    #[test]
    fn error_bound_holds(
        nd in 2usize..6,
        nm in 8usize..48,
        nt in 4usize..24,
        cfg_idx in 0usize..32,
        seed in 0u64..u64::MAX,
    ) {
        let op = operator(nd, nm, nt, seed);
        let m = stuffed(nm * nt, seed ^ 3);
        let mut mv = FftMatvec::builder(op).build().unwrap();
        let baseline = mv.apply_forward(&m).unwrap();
        let cfg = PrecisionConfig::all_configs()[cfg_idx];
        mv.set_config(cfg);
        let err = rel_l2_error(&mv.apply_forward(&m).unwrap(), &baseline);
        let bound = error_bound(cfg, &BoundParams {
            nt,
            n_local: nm,
            reduce_ranks: 1,
            kappa: 100.0,
        }).total;
        if cfg.is_all_double() {
            prop_assert!(err < 1e-13);
        } else {
            prop_assert!(err <= bound, "{cfg}: err {err} > bound {bound}");
        }
    }

    /// Distributed execution over any feasible grid reproduces the
    /// single-rank result in double precision.
    #[test]
    fn distributed_matches_single(
        nd in 1usize..5,
        nm in 2usize..16,
        nt in 1usize..10,
        rows_sel in 1usize..4,
        cols_sel in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let rows = rows_sel.min(nd);
        let cols = cols_sel.min(nm);
        let mut rng = SplitMix64::new(seed);
        let mut col = vec![0.0; nt * nd * nm];
        rng.fill_uniform(&mut col, -1.0, 1.0);
        let mut m = vec![0.0; nm * nt];
        rng.fill_uniform(&mut m, -1.0, 1.0);

        let single = DistributedFftMatvec::from_global(
            nd, nm, nt, &col, ProcessGrid::single(), PrecisionConfig::all_double()).unwrap();
        let dist = DistributedFftMatvec::from_global(
            nd, nm, nt, &col, ProcessGrid::new(rows, cols), PrecisionConfig::all_double()).unwrap();
        let want = single.apply_forward(&m).unwrap();
        let got = dist.apply_forward(&m).unwrap();
        prop_assert!(rel_l2_error(&got, &want) < 1e-11);
        // Adjoint too.
        let mut d = vec![0.0; nd * nt];
        rng.fill_uniform(&mut d, -1.0, 1.0);
        let want_a = single.apply_adjoint(&d).unwrap();
        let got_a = dist.apply_adjoint(&d).unwrap();
        prop_assert!(rel_l2_error(&got_a, &want_a) < 1e-11);
    }

    /// Round-tripping the config string through parse/format is identity,
    /// and the boundary precision is commutative.
    #[test]
    fn config_string_roundtrip(cfg_idx in 0usize..32) {
        let cfg = PrecisionConfig::all_configs()[cfg_idx];
        let s = cfg.to_string();
        let back: PrecisionConfig = s.parse().unwrap();
        prop_assert_eq!(cfg, back);
    }

    /// Parse/format roundtrip over the full 4⁵ lattice: every one of the
    /// 1024 `h`/`b`/`s`/`d` code strings is parseable, formats back to
    /// itself, and maps each phase to the tier its code digit names.
    #[test]
    fn full_lattice_string_roundtrip(cfg_idx in 0usize..1024) {
        let cfg = PrecisionConfig::all_configs_full()[cfg_idx];
        let s = cfg.to_string();
        prop_assert_eq!(s.len(), 5);
        let back: PrecisionConfig = s.parse().unwrap();
        prop_assert_eq!(cfg, back);
        // Each code digit names the phase tier it parses to.
        for (c, phase) in s.chars().zip(fftmatvec_core::MatvecPhase::ALL) {
            prop_assert_eq!(Precision::from_code(c).unwrap(), cfg.phase(phase));
        }
        // Uppercase parses to the same configuration.
        let upper: PrecisionConfig = s.to_ascii_uppercase().parse().unwrap();
        prop_assert_eq!(cfg, upper);
    }

    /// Invalid configuration strings are rejected: wrong lengths and any
    /// character outside the `h`/`b`/`s`/`d` code alphabet.
    #[test]
    fn config_string_rejection(cfg_idx in 0usize..1024, pos in 0usize..5, bad_sel in 0usize..8, len in 0usize..9) {
        let cfg = PrecisionConfig::all_configs_full()[cfg_idx];
        let s = cfg.to_string();
        // Wrong length: truncations and extensions of a valid string.
        if len != 5 {
            let wrong: String = s.chars().cycle().take(len).collect();
            prop_assert!(wrong.parse::<PrecisionConfig>().is_err(), "{wrong:?}");
        }
        // One corrupted code character.
        let bad = ['x', 'q', 'f', '1', ' ', 'z', 'é', '-'][bad_sel];
        let mut chars: Vec<char> = s.chars().collect();
        chars[pos] = bad;
        let corrupted: String = chars.into_iter().collect();
        prop_assert!(corrupted.parse::<PrecisionConfig>().is_err(), "{corrupted:?}");
    }

    /// `RealBuffer::cast` roundtrips are exact whenever the intermediate
    /// tier is wider (every value of the source tier is representable),
    /// and the up-cast itself never changes a value.
    #[test]
    fn cast_real_roundtrip_exact_when_wider(
        from_idx in 0usize..4,
        to_idx in 0usize..4,
        n in 1usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let from = Precision::ALL[from_idx];
        let to = Precision::ALL[to_idx];
        let mut rng = SplitMix64::new(seed);
        let mut data = vec![0.0; n];
        rng.fill_uniform_stuffed(&mut data, -1.0, 1.0);
        let src = fftmatvec_numeric::RealBuffer::from_f64(from, &data);
        let cast = src.clone().cast(to);
        prop_assert_eq!(cast.precision(), to);
        if from.widens_exactly_to(to) {
            // Widening is value-exact and the down-cast back is identity.
            for i in 0..n {
                prop_assert_eq!(cast.get(i), src.get(i), "{} → {} value", from, to);
            }
            let back = cast.cast(from);
            prop_assert_eq!(back, src, "{} → {} → {} roundtrip", from, to, from);
        }
    }

    /// Measured error of any *four-tier* configuration obeys the Eq.-6
    /// bound with the same κ proxy the two-tier property uses. Shapes are
    /// kept modest so the f16 dynamic range (max finite 65504) is never
    /// the binding constraint.
    #[test]
    fn error_bound_holds_full_lattice(
        nd in 2usize..5,
        nm in 8usize..32,
        nt in 4usize..16,
        cfg_idx in 0usize..1024,
        seed in 0u64..u64::MAX,
    ) {
        let op = operator(nd, nm, nt, seed);
        let m = stuffed(nm * nt, seed ^ 5);
        let mut mv = FftMatvec::builder(op).build().unwrap();
        let baseline = mv.apply_forward(&m).unwrap();
        let cfg = PrecisionConfig::all_configs_full()[cfg_idx];
        mv.set_config(cfg);
        let out = mv.apply_forward(&m).unwrap();
        prop_assert!(out.iter().all(|v| v.is_finite()), "{cfg}: non-finite output");
        let err = rel_l2_error(&out, &baseline);
        let bound = error_bound(cfg, &BoundParams {
            nt,
            n_local: nm,
            reduce_ranks: 1,
            kappa: 100.0,
        }).total;
        if cfg.is_all_double() {
            prop_assert!(err < 1e-13);
        } else {
            prop_assert!(err <= bound, "{cfg}: err {err} > bound {bound}");
        }
    }

    /// The autotuner's two promises hold for any shape, direction, and
    /// budget spanning all four tiers: the measured error of the chosen
    /// configuration stays at or under the budget, and no admissible
    /// configuration is strictly cheaper under the calibrated cost order
    /// (the winner sits within the 1% measurement-tie window of the
    /// minimum). Unsatisfiable budgets must be rejected with a floor
    /// that genuinely exceeds them.
    #[test]
    fn autotune_meets_budget_and_is_cost_minimal(
        nd in 2usize..5,
        nm in 4usize..12,
        nt in 4usize..12,
        dir_sel in 0usize..2,
        exp in -16i32..2,
        mant in 1.0f64..10.0,
        seed in 0u64..u64::MAX,
    ) {
        let dir = [OpDirection::Forward, OpDirection::Adjoint][dir_sel];
        let budget = mant * 10f64.powi(exp);
        let op = well_conditioned(nd, nm, nt, seed);
        let kappa = condition_estimate(&op, 1);
        let mut mv = FftMatvec::builder(op).build().unwrap();
        let params = BoundParams::for_direction(dir, nt, nd, nm, 1, 1, kappa);
        let weights = PhaseWeights::for_shape(nd, nm, nt, dir);
        let mut calib = TierCalibration::new();
        match autotune(&mut mv, dir, budget, &params, &weights, &mut calib) {
            Err(OpError::Config(ConfigError::BudgetUnsatisfiable { floor, .. })) => {
                prop_assert!(floor > budget, "rejection floor {floor} ≤ budget {budget}");
            }
            Err(e) => prop_assert!(false, "unexpected autotune error: {e:?}"),
            Ok(choice) => {
                prop_assert!(choice.bound.total <= budget);
                prop_assert_eq!(choice.direction, dir);
                // Cost minimality: every admissible configuration predicts
                // at least winner/1.01 under the calibration autotune left
                // behind (all needed tiers are seeded by construction).
                for (cfg, _) in admissible_configs(budget, &params) {
                    let cost = calib.predict(cfg, dir, &weights).unwrap();
                    prop_assert!(
                        cost >= choice.predicted_seconds / 1.01,
                        "{cfg} at {cost} undercuts winner {} at {}",
                        choice.config, choice.predicted_seconds
                    );
                }
                // Install the winner and check the measured error honors
                // the promise.
                mv.set_config(choice.config);
                let in_len = match dir {
                    OpDirection::Forward => nm * nt,
                    OpDirection::Adjoint => nd * nt,
                };
                let x = stuffed(in_len, seed ^ 9);
                let measured = fftmatvec_core::pareto::error_sweep(
                    &mut mv, dir, &[choice.config], &x).unwrap()[0];
                prop_assert!(
                    measured <= budget,
                    "measured {measured} over budget {budget} ({} in {dir})",
                    choice.config
                );
            }
        }
    }
}
