//! Contract tests for the queue discipline: typed rejections, deadline
//! expiry, admission control, panic isolation, shutdown drain, and the
//! counters the load harness gates on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fftmatvec_core::{
    BlockToeplitzOperator, FftMatvec, FftMatvecBuilder, LinearOperator, OpDirection, OpError,
    OpShape,
};
use fftmatvec_numeric::SplitMix64;
use fftmatvec_service::{block_on, OperatorRegistry, Service, ServiceConfig, ServiceError};

const ND: usize = 2;
const NM: usize = 3;
const NT: usize = 16;

/// The pipeline every test serves as `"tomo"`; a second build is its
/// bit-identical solo reference.
fn tomo() -> FftMatvecBuilder {
    let mut rng = SplitMix64::new(7);
    let mut col = vec![0.0; NT * ND * NM];
    rng.fill_uniform(&mut col, -1.0, 1.0);
    FftMatvec::builder(BlockToeplitzOperator::from_first_block_column(ND, NM, NT, &col).unwrap())
}

fn registry() -> Arc<OperatorRegistry> {
    let reg = Arc::new(OperatorRegistry::new());
    reg.register_fft("tomo", tomo()).unwrap();
    reg
}

/// A config whose batch window never closes on its own: deterministic
/// backdrop for queue-state tests.
fn frozen_window() -> ServiceConfig {
    ServiceConfig {
        max_batch: 64,
        max_delay: Duration::from_secs(3600),
        queue_capacity: 1024,
        workers: 1,
    }
}

/// The default policy with a 1 ms window for the tests that wait one
/// out; the close counts they assert are exact for any window length.
fn short_window() -> ServiceConfig {
    ServiceConfig { max_delay: Duration::from_millis(1), ..Default::default() }
}

#[test]
fn unknown_operator_is_rejected_at_submit() {
    let service = Service::new(registry(), ServiceConfig::default());
    let err = service.submit("nope", OpDirection::Forward, vec![0.0; NM * NT]).unwrap_err();
    assert_eq!(err, ServiceError::UnknownOperator("nope".into()));
    assert_eq!(service.stats().rejected, 1);
}

#[test]
fn wrong_shape_is_rejected_at_submit() {
    let service = Service::new(registry(), ServiceConfig::default());
    // Forward expects cols = NM*NT; offer the adjoint length instead.
    let err = service.submit("tomo", OpDirection::Forward, vec![0.0; ND * NT]).unwrap_err();
    assert_eq!(
        err,
        ServiceError::Shape(OpError::InputLength {
            dir: OpDirection::Forward,
            expected: NM * NT,
            got: ND * NT,
        })
    );
    // The typed chain reaches the OpError for logging.
    use std::error::Error;
    assert!(err.source().is_some());
}

/// A burst of 32 with one NaN and one +∞ among them: those two are
/// refused at submission with the typed error and the index of the bad
/// entry; the other 30 share one window and each carries the bits of its
/// solo apply; the counters reconcile.
#[test]
fn non_finite_inputs_are_refused_and_do_not_poison_the_burst() {
    let (burst, nan_at, inf_at) = (32usize, 5usize, 17usize);
    let service = Service::new(
        registry(),
        ServiceConfig {
            max_batch: burst - 2,
            max_delay: Duration::from_secs(3600),
            ..frozen_window()
        },
    );
    let inputs: Vec<Vec<f64>> = (0..burst)
        .map(|b| {
            let mut x = vec![0.0; NM * NT];
            SplitMix64::new(0xB0 + b as u64).fill_uniform(&mut x, -1.0, 1.0);
            match b {
                _ if b == nan_at => x[3] = f64::NAN,
                _ if b == inf_at => x[NM * NT - 1] = f64::INFINITY,
                _ => {}
            }
            x
        })
        .collect();
    let submits: Vec<_> =
        inputs.iter().map(|x| service.submit("tomo", OpDirection::Forward, x.clone())).collect();

    let reference = tomo().build().unwrap();
    let mut want = vec![0.0; ND * NT];
    for (b, (x, submit)) in inputs.iter().zip(submits).enumerate() {
        if b == nan_at || b == inf_at {
            let index = if b == nan_at { 3 } else { NM * NT - 1 };
            assert_eq!(
                submit.unwrap_err(),
                ServiceError::NonFiniteInput { operator: "tomo".into(), index },
                "request {b}"
            );
            continue;
        }
        let got = submit.unwrap().wait().unwrap();
        reference.apply_into(OpDirection::Forward, x, &mut want).unwrap();
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "request {b} differs from its solo apply");
    }

    let stats = service.stats();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.submitted, burst as u64 - 2);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!((stats.expired, stats.failed, stats.panicked), (0, 0, 0));
    assert_eq!((stats.batches, stats.closed_full, stats.batched_requests), (1, 1, 30));
}

#[test]
fn zero_deadline_expires_instead_of_computing() {
    let service = Service::new(registry(), frozen_window());
    let ticket = service
        .submit_with_deadline("tomo", OpDirection::Forward, vec![1.0; NM * NT], Duration::ZERO)
        .unwrap();
    match ticket.wait().unwrap_err() {
        ServiceError::DeadlineExceeded { operator, .. } => assert_eq!(operator, "tomo"),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.batches, 0, "an expired request must never execute");
}

/// The same on a lane that has stopped lingering: the expiry sweep runs
/// before any window is carved, so a lapsed deadline still wins over an
/// immediate (`closed_alone`) dispatch.
#[test]
fn zero_deadline_expires_on_a_lane_that_dispatches_at_once() {
    let service = Service::new(registry(), short_window());
    let lone = |x: f64| service.submit("tomo", OpDirection::Forward, vec![x; NM * NT]).unwrap();
    lone(1.0).wait().unwrap();
    lone(2.0).wait().unwrap();
    let stats = service.stats();
    assert_eq!((stats.closed_timer, stats.closed_alone), (1, 1), "the lane no longer lingers");

    let ticket = service
        .submit_with_deadline("tomo", OpDirection::Forward, vec![3.0; NM * NT], Duration::ZERO)
        .unwrap();
    assert!(matches!(ticket.wait().unwrap_err(), ServiceError::DeadlineExceeded { .. }));
    // Expiring told the lane nothing about mates: still immediate.
    lone(4.0).wait().unwrap();
    let stats = service.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!((stats.batches, stats.closed_timer, stats.closed_alone), (3, 1, 2));
}

#[test]
fn generous_deadline_completes_normally() {
    let service = Service::new(registry(), ServiceConfig::default());
    let ticket = service
        .submit_with_deadline(
            "tomo",
            OpDirection::Adjoint,
            vec![1.0; ND * NT],
            Duration::from_secs(30),
        )
        .unwrap();
    assert_eq!(ticket.wait().unwrap().len(), NM * NT);
}

#[test]
fn full_lane_sheds_load_with_overloaded() {
    let mut cfg = frozen_window();
    cfg.queue_capacity = 2;
    let service = Service::new(registry(), cfg);
    let _t0 = service.submit("tomo", OpDirection::Forward, vec![0.5; NM * NT]).unwrap();
    let _t1 = service.submit("tomo", OpDirection::Forward, vec![0.5; NM * NT]).unwrap();
    let err = service.submit("tomo", OpDirection::Forward, vec![0.5; NM * NT]).unwrap_err();
    assert_eq!(err, ServiceError::Overloaded { operator: "tomo".into(), queued: 2, capacity: 2 });
    // Capacity is per lane: the adjoint lane still admits.
    let _t2 = service.submit("tomo", OpDirection::Adjoint, vec![0.5; ND * NT]).unwrap();
    assert_eq!(service.queued(), 3);
}

/// Operator whose forward apply panics on demand — the service must
/// contain the panic to the affected window and keep serving.
struct Landmine {
    armed: AtomicUsize,
}

impl LinearOperator for Landmine {
    fn shape(&self) -> OpShape {
        OpShape::new(4, 4)
    }
    fn apply_forward_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
        if self
            .armed
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |a| Some(a.saturating_sub(1)))
            .unwrap()
            > 0
        {
            panic!("landmine triggered");
        }
        out.copy_from_slice(input);
        Ok(())
    }
    fn apply_adjoint_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
        out.copy_from_slice(input);
        Ok(())
    }
}

#[test]
fn worker_survives_operator_panics() {
    let reg = registry();
    reg.register("mine", Arc::new(Landmine { armed: AtomicUsize::new(1) }));
    let service = Service::new(Arc::clone(&reg), ServiceConfig::default());

    let boom = service.submit("mine", OpDirection::Forward, vec![1.0; 4]).unwrap();
    assert_eq!(boom.wait().unwrap_err(), ServiceError::WorkerPanicked { operator: "mine".into() });

    // The same worker thread keeps serving: the disarmed landmine and
    // the FFT operator both complete afterwards.
    let ok = service.submit("mine", OpDirection::Forward, vec![2.0; 4]).unwrap();
    assert_eq!(ok.wait().unwrap(), vec![2.0; 4]);
    let fft = service.submit("tomo", OpDirection::Forward, vec![1.0; NM * NT]).unwrap();
    assert_eq!(fft.wait().unwrap().len(), ND * NT);
    let stats = service.stats();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, 2);
}

#[test]
fn shutdown_rejects_new_work_and_drains_old() {
    let mut service = Service::new(registry(), frozen_window());
    let queued = service.submit("tomo", OpDirection::Forward, vec![1.0; NM * NT]).unwrap();
    service.shutdown();
    // Queued work completed during the drain despite the frozen window.
    assert_eq!(queued.wait().unwrap().len(), ND * NT);
    // New work is refused.
    let err = service.submit("tomo", OpDirection::Forward, vec![1.0; NM * NT]).unwrap_err();
    assert_eq!(err, ServiceError::ShuttingDown);
}

#[test]
fn shutdown_drain_is_counted_as_such() {
    let mut service = Service::new(registry(), frozen_window());
    let tickets: Vec<_> = (0..3)
        .map(|i| service.submit("tomo", OpDirection::Forward, vec![i as f64; NM * NT]).unwrap())
        .collect();
    service.shutdown();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = service.stats();
    assert_eq!((stats.batches, stats.closed_drain, stats.batched_requests), (1, 1, 3));
}

#[test]
fn deregistered_operator_fails_queued_requests_typed() {
    let reg = registry();
    let mut service = Service::new(Arc::clone(&reg), frozen_window());
    let ticket = service.submit("tomo", OpDirection::Forward, vec![1.0; NM * NT]).unwrap();
    assert!(reg.deregister("tomo"));
    // The drain discovers the operator is gone and rejects rather than
    // hanging the caller.
    service.shutdown();
    assert_eq!(ticket.wait().unwrap_err(), ServiceError::UnknownOperator("tomo".into()));
}

#[test]
fn tickets_are_futures() {
    let service = Service::new(registry(), ServiceConfig::default());
    let out = block_on(async {
        let ticket = service.submit("tomo", OpDirection::Forward, vec![1.0; NM * NT]).unwrap();
        ticket.await
    })
    .unwrap();
    assert_eq!(out.len(), ND * NT);
}

/// A caller that waits for each reply before sending the next can never
/// be sent a lane-mate: the first request waits out the window, learns
/// that, and every later one is dispatched at once. Exact on any
/// scheduler — each window holds the only request in existence.
#[test]
fn lone_requests_stop_waiting_after_the_first() {
    let service = Service::new(registry(), short_window());
    for i in 0..3 {
        service
            .submit("tomo", OpDirection::Forward, vec![i as f64; NM * NT])
            .unwrap()
            .wait()
            .unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.batches, 3);
    assert_eq!(stats.closed_timer, 1);
    assert_eq!(stats.closed_alone, 2);
    assert_eq!((stats.closed_full, stats.closed_drain), (0, 0));
    // The learning is per lane: the adjoint lane starts fresh.
    service.submit("tomo", OpDirection::Adjoint, vec![1.0; ND * NT]).unwrap().wait().unwrap();
    assert_eq!(service.stats().closed_timer, 2);
}

#[test]
fn stats_counters_reconcile() {
    let service = Service::new(registry(), ServiceConfig::default());
    for i in 0..6 {
        let x = vec![i as f64; NM * NT];
        service.submit("tomo", OpDirection::Forward, x).unwrap().wait().unwrap();
    }
    let _ = service.submit("missing", OpDirection::Forward, vec![0.0; 4]).unwrap_err();
    let stats = service.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.batched_requests, 6);
    assert_eq!(
        stats.closed_full + stats.closed_timer + stats.closed_alone + stats.closed_drain,
        stats.batches,
        "every executed window closed for exactly one reason"
    );
    assert_eq!(stats.latencies_ns.len(), 6);
    assert!(stats.mean_batch() >= 1.0);
    let p50 = stats.latency_quantile_us(0.5).unwrap();
    let p99 = stats.latency_quantile_us(0.99).unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "quantiles must be positive and ordered");
    assert!(stats.latency_quantile_us(0.0).unwrap() <= p50);
}
