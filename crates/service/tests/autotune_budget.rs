//! Budget-routed serving: mixed-budget traffic resolves to multiple
//! precision configurations, and per-request results stay bit-identical
//! to solo applies under each request's resolved configuration.
//!
//! This is the service-level contract of the precision autotuner: lanes
//! are keyed by (operator, direction, budget decade), so a coalesced
//! window never mixes configurations — callers with different budgets
//! share the warm operator without perturbing each other's bits.

use std::sync::Arc;
use std::time::Duration;

use fftmatvec_core::{
    BackendKind, BlockToeplitzOperator, FftMatvec, LinearOperator, OpDirection, OpError,
    PrecisionConfig,
};
use fftmatvec_numeric::SplitMix64;
use fftmatvec_service::{
    block_on, join_all, OperatorRegistry, Service, ServiceConfig, ServiceError,
};

/// Identity-plus-noise operator: κ(F̂) ≈ 1, so the Eq. 6 pruning admits
/// genuinely narrow configurations at loose budgets while a tight budget
/// still forces all-double.
fn well_conditioned(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, -0.05, 0.05);
    let n = nd.min(nm);
    for i in 0..n {
        col[i * nm + i] += 1.0;
    }
    BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap()
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

#[test]
fn mixed_budget_traffic_is_config_routed_and_bit_deterministic() {
    let (nd, nm, nt) = (4usize, 4usize, 32usize);

    // Two budget classes far enough apart that they cannot resolve to
    // the same configuration: 1e-13 sits between the all-double Eq. 6
    // floor (≈1.3e-14 at this shape) and every narrow config's ≥ε_s
    // terms, so it forces all-double; 1e-2 admits 16-bit work.
    let budgets = [1e-13, 1e-2];
    let dir = OpDirection::Forward;
    let in_len = nm * nt;

    // Tier calibration is a live measurement, so a noisy scheduler
    // window on a loaded host can legitimately tie the narrow tiers
    // against double — the tie-break then lands every budget on
    // all-double. Retry with a fresh registration (fresh calibration)
    // instead of flaking: the contract is that a clean measurement
    // routes the loose decade off all-double, and several consecutive
    // dirty windows is vanishingly unlikely. The bit-determinism
    // contract is unconditional and checked on every attempt.
    let mut routed = false;
    for attempt in 0..5 {
        let op = well_conditioned(nd, nm, nt, 7);
        let base = Arc::new(op.clone());

        // Pinned to the CPU backend: the test asserts a routing outcome
        // of the live timing calibration, not backend dispatch, and the
        // simulated device's modeled-clock booking on every primitive
        // call only adds measurement noise at this tiny shape. Builder
        // beats the `FFTMATVEC_BACKEND` env override, so the simulated
        // CI leg still runs everything else through the env backend.
        let registry = Arc::new(OperatorRegistry::new());
        registry
            .register_fft_tunable("tuned", FftMatvec::builder(op).backend(BackendKind::Cpu))
            .unwrap();
        let service = Service::new(
            Arc::clone(&registry),
            ServiceConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
                queue_capacity: 256,
                workers: 2,
            },
        );

        let mut inputs: Vec<Vec<f64>> = Vec::new();
        let mut tickets = Vec::new();
        let mut which = Vec::new();
        for i in 0..24 {
            let mut rng = SplitMix64::new(1000 + i as u64);
            let mut x = vec![0.0; in_len];
            rng.fill_uniform_stuffed(&mut x, -1.0, 1.0);
            let budget = budgets[i % 2];
            tickets.push(service.submit_with_budget("tuned", dir, budget, x.clone()).unwrap());
            inputs.push(x);
            which.push(budget);
        }
        let outputs = block_on(join_all(tickets));

        let tight =
            service.resolved_config("tuned", dir, budgets[0]).expect("tight decade resolved");
        let loose =
            service.resolved_config("tuned", dir, budgets[1]).expect("loose decade resolved");
        assert_eq!(tight, PrecisionConfig::all_double(), "1e-13 is under every narrow floor");

        // Every request's result is bit-identical to a solo apply under
        // its budget's resolved configuration — coalescing and
        // lane-mates with other budgets are invisible.
        for ((x, budget), out) in inputs.iter().zip(&which).zip(&outputs) {
            let cfg = service.resolved_config("tuned", dir, *budget).unwrap();
            let solo = FftMatvec::builder_arc(Arc::clone(&base)).precision(cfg).build().unwrap();
            let want = solo.apply_forward(x).unwrap();
            let got = out.as_ref().expect("budget-routed request served");
            assert_bits_eq(got, &want, &format!("budget {budget:e} via {cfg}"));
        }

        let stats = service.stats();
        assert_eq!(stats.autotuned, 24);
        assert_eq!(stats.configs_served.iter().map(|(_, n)| n).sum::<u64>(), 24);
        assert_eq!(stats.latency_count, stats.completed);

        if tight != loose {
            assert!(stats.configs_served.len() >= 2, "served configs: {:?}", stats.configs_served);
            routed = true;
            break;
        }
        eprintln!("attempt {attempt}: loose decade tied to all-double, recalibrating");
    }
    assert!(routed, "mixed budgets never resolved to ≥ 2 distinct configs in 5 calibrations");
}

#[test]
fn plain_and_budget_lanes_coexist_on_one_operator() {
    let (nd, nm, nt) = (3usize, 3usize, 16usize);
    let op = well_conditioned(nd, nm, nt, 11);
    let base = Arc::new(op.clone());
    let registry = Arc::new(OperatorRegistry::new());
    registry.register_fft_tunable("tuned", FftMatvec::builder(op)).unwrap();
    let service = Service::new(Arc::clone(&registry), ServiceConfig::default());

    let mut rng = SplitMix64::new(21);
    let mut m = vec![0.0; nm * nt];
    rng.fill_uniform_stuffed(&mut m, -1.0, 1.0);
    let mut d = vec![0.0; nd * nt];
    rng.fill_uniform_stuffed(&mut d, -1.0, 1.0);

    // A plain submit uses the registered configuration (default: the
    // builder's), a budget submit the autotuned one, and the adjoint
    // budget lane resolves independently of the forward one.
    let plain = service.submit("tuned", OpDirection::Forward, m.clone()).unwrap().wait().unwrap();
    let tuned = service
        .submit_with_budget("tuned", OpDirection::Forward, 1e-6, m.clone())
        .unwrap()
        .wait()
        .unwrap();
    let tuned_adj = service
        .submit_with_budget("tuned", OpDirection::Adjoint, 1e-6, d.clone())
        .unwrap()
        .wait()
        .unwrap();

    let default_mv = FftMatvec::builder_arc(Arc::clone(&base)).build().unwrap();
    assert_bits_eq(&plain, &default_mv.apply_forward(&m).unwrap(), "plain lane");

    let fwd_cfg = service.resolved_config("tuned", OpDirection::Forward, 1e-6).unwrap();
    let adj_cfg = service.resolved_config("tuned", OpDirection::Adjoint, 1e-6).unwrap();
    let fwd_mv = FftMatvec::builder_arc(Arc::clone(&base)).precision(fwd_cfg).build().unwrap();
    let adj_mv = FftMatvec::builder_arc(Arc::clone(&base)).precision(adj_cfg).build().unwrap();
    assert_bits_eq(&tuned, &fwd_mv.apply_forward(&m).unwrap(), "forward budget lane");
    assert_bits_eq(&tuned_adj, &adj_mv.apply_adjoint(&d).unwrap(), "adjoint budget lane");

    // The un-budgeted direction never resolved anything.
    assert!(service.resolved_config("tuned", OpDirection::Adjoint, 1e-14).is_none());
}

#[test]
fn a_rejected_budget_submission_leaves_no_trace() {
    let (nd, nm, nt) = (2usize, 3usize, 8usize);
    let registry = Arc::new(OperatorRegistry::new());
    let op = well_conditioned(nd, nm, nt, 31);
    registry.register_fft_tunable("tuned", FftMatvec::builder(op)).unwrap();
    let service = Service::new(Arc::clone(&registry), ServiceConfig::default());
    let dir = OpDirection::Forward;

    // A wrong-length input and a NaN input, each in a budget decade no
    // request has used yet: both are refused before the budget resolves.
    let short = service.submit_with_budget("tuned", dir, 1e-3, vec![1.0; nm * nt - 1]);
    assert!(matches!(short.err(), Some(ServiceError::Shape(OpError::InputLength { .. }))));
    let mut nan = vec![1.0; nm * nt];
    nan[5] = f64::NAN;
    let poisoned = service.submit_with_budget("tuned", dir, 1e-5, nan);
    assert!(matches!(poisoned.err(), Some(ServiceError::NonFiniteInput { index: 5, .. })));
    for budget in [1e-3, 1e-5] {
        assert!(service.resolved_config("tuned", dir, budget).is_none(), "budget {budget:e}");
    }
    assert_eq!(service.stats().rejected, 2);

    // An admissible request in the same decade resolves as usual.
    let ok = service.submit_with_budget("tuned", dir, 1e-3, vec![1.0; nm * nt]).unwrap();
    ok.wait().unwrap();
    assert!(service.resolved_config("tuned", dir, 1e-3).is_some());
}
