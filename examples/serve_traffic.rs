//! Operator-as-a-service walkthrough: register a warm pipeline, serve a
//! concurrent burst through the coalescing queue, and exercise every
//! piece of the typed rejection surface — deadlines, admission control,
//! and panic isolation are all observable from the stats counters.
//!
//! Run: `cargo run --release --example serve_traffic`

use std::sync::Arc;
use std::time::Duration;

use fftmatvec::core::{BlockToeplitzOperator, FftMatvec, OpDirection};
use fftmatvec::numeric::SplitMix64;
use fftmatvec::service::{
    block_on, join_all, OperatorRegistry, Service, ServiceConfig, ServiceError,
};

fn main() -> Result<(), ServiceError> {
    // --- Registry: build once, stay warm -----------------------------
    // Construction is the expensive step (FFT plans per precision tier,
    // workspace pool); the registry keeps the built pipeline alive under
    // a stable id so every request after this line reuses the warm state.
    let (nd, nm, nt) = (4usize, 64usize, 128usize);
    let mut rng = SplitMix64::new(2025);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, 0.0, 1.0);
    let op = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col)
        .map_err(ServiceError::from)?;

    let registry = Arc::new(OperatorRegistry::new());
    registry.register_fft("tomo", FftMatvec::builder(op))?;
    println!("registered operators: {:?}", registry.names());

    // --- Service: a coalescing queue over the registry ---------------
    // `max_delay` is an upper bound, paid only where waiting buys
    // lane-mates: a lane whose last lone request waited it out for
    // nothing dispatches at once, and a burst re-arms the wait.
    let mut service = Service::new(
        Arc::clone(&registry),
        ServiceConfig {
            max_batch: 16,                       // window closes when full…
            max_delay: Duration::from_millis(2), // …or when its head is 2 ms old
            queue_capacity: 64,                  // per-lane admission bound
            workers: 1,
        },
    );

    // A burst of 24 forward requests submitted back to back. Tickets are
    // ordinary futures; the bundled executor drives the whole wave. The
    // service coalesces the burst into at most two apply_many_into
    // windows (16 + 8) — and batched execution is bit-identical to
    // applying each vector alone, so callers cannot tell.
    let tickets: Vec<_> = (0..24)
        .map(|i| {
            let mut rng = SplitMix64::new(100 + i as u64);
            let mut m = vec![0.0; nm * nt];
            rng.fill_uniform(&mut m, -1.0, 1.0);
            service.submit("tomo", OpDirection::Forward, m)
        })
        .collect::<Result<_, _>>()?;
    let outputs = block_on(join_all(tickets));
    let served = outputs.iter().filter(|o| o.is_ok()).count();
    println!("burst: {served}/24 served, output length {}", outputs[0].as_ref().unwrap().len());

    // Blocking callers skip the executor entirely.
    let d = service.submit("tomo", OpDirection::Adjoint, vec![1.0; nd * nt])?.wait()?;
    println!("blocking adjoint request: output length {}", d.len());

    // --- Budget routing: precision autotuning per request ------------
    // A *tunable* registration carries a live calibration pipeline;
    // requests may then name an error budget instead of a configuration
    // and the service installs the cheapest configuration whose Eq. 6
    // bound meets it, one lane per budget decade so coalesced windows
    // stay config-homogeneous (and therefore bit-deterministic). The
    // operator here is identity-plus-noise: κ ≈ 1, so the budget — not
    // the conditioning — decides what is admissible.
    let mut noise = vec![0.0; nd * nm];
    rng.fill_uniform(&mut noise, -0.05, 0.05);
    let mut eye_col = vec![0.0; nt * nd * nm];
    for i in 0..nd {
        for k in 0..nm {
            eye_col[i * nm + k] = noise[i * nm + k] + if i == k { 1.0 } else { 0.0 };
        }
    }
    let mri = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &eye_col)
        .map_err(ServiceError::from)?;
    registry.register_fft_tunable("mri", FftMatvec::builder(mri))?;

    for budget in [1e-3, 1e-12] {
        let out = service
            .submit_with_budget("mri", OpDirection::Forward, budget, vec![0.5; nm * nt])?
            .wait()?;
        let cfg = service.resolved_config("mri", OpDirection::Forward, budget).unwrap();
        println!("budget {budget:>5.0e} -> config {cfg} (output length {})", out.len());
    }

    // --- Typed rejections --------------------------------------------
    // Unknown id: rejected at submission, nothing queued.
    let err = service.submit("seismo", OpDirection::Forward, vec![0.0; nm * nt]).unwrap_err();
    println!("unknown operator  -> {err}");

    // Wrong shape: the error hierarchy surfaces the OpError cause.
    let err = service.submit("tomo", OpDirection::Forward, vec![0.0; 3]).unwrap_err();
    println!("wrong shape       -> {err}");

    // A budget below the all-double Eq. 6 floor is unsatisfiable, and a
    // plainly-registered operator has no calibration to tune with; both
    // are rejected at submission.
    let err = service
        .submit_with_budget("mri", OpDirection::Forward, 1e-20, vec![0.0; nm * nt])
        .unwrap_err();
    println!("hopeless budget   -> {err}");
    let err = service
        .submit_with_budget("tomo", OpDirection::Forward, 1e-6, vec![0.0; nm * nt])
        .unwrap_err();
    println!("not tunable       -> {err}");

    // Hopeless deadline: expires in the queue, never computed.
    let err = service
        .submit_with_deadline("tomo", OpDirection::Forward, vec![0.5; nm * nt], Duration::ZERO)
        .unwrap_err_or_wait();
    println!("zero deadline     -> {err}");

    // --- Stats: what the load harness gates on -----------------------
    let stats = service.stats();
    println!(
        "stats: {} submitted, {} completed, {} rejected, {} expired over {} windows \
         (mean occupancy {:.1}, p50 {:.0} us, p99 {:.0} us)",
        stats.submitted,
        stats.completed,
        stats.rejected,
        stats.expired,
        stats.batches,
        stats.mean_batch(),
        stats.latency_quantile_us(0.50).unwrap_or(0.0),
        stats.latency_quantile_us(0.99).unwrap_or(0.0),
    );
    // Why each window closed: the burst fills one and times out the
    // rest; every lone request above was the first on its lane, so each
    // waited out `max_delay` (a second one would read `alone`).
    println!(
        "windows closed: {} full, {} timer, {} alone, {} drain",
        stats.closed_full, stats.closed_timer, stats.closed_alone, stats.closed_drain
    );
    println!("autotuned: {} requests via {:?}", stats.autotuned, stats.configs_served);

    // Shutdown stops admissions and drains anything still queued.
    service.shutdown();
    assert!(matches!(
        service.submit("tomo", OpDirection::Forward, vec![0.0; nm * nt]),
        Err(ServiceError::ShuttingDown)
    ));
    println!("service drained and shut down");
    Ok(())
}

/// Submitting with an already-expired deadline is still *admitted* (the
/// queue, not the submit path, owns deadline bookkeeping) — the
/// rejection arrives through the ticket. This helper unwraps either way
/// so the demo reads linearly.
trait UnwrapRejection {
    fn unwrap_err_or_wait(self) -> ServiceError;
}

impl UnwrapRejection for Result<fftmatvec::service::Ticket, ServiceError> {
    fn unwrap_err_or_wait(self) -> ServiceError {
        match self {
            Err(e) => e,
            Ok(ticket) => ticket.wait().expect_err("zero deadline must expire"),
        }
    }
}
