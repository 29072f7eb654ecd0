//! Concurrency stress: many submitters, many workers, one warm operator.
//!
//! The pipeline's workspace pool hands each batch window its own
//! checkout (the ledger panics on aliasing), so concurrent windows on
//! one `FftMatvec` must be safe and bit-exact. These tests drive that
//! from both ends: through the service with 4 executor workers × 4
//! submitter threads, and directly with 8 threads hammering
//! `apply_many_into` on a shared `Arc<FftMatvec>`. Afterwards the pool
//! must report zero workspaces in flight and retain no more than the
//! bounded cap. A third test reads the counters from a bystander thread
//! while closed-loop callers run: no snapshot may show more requests
//! settled than admitted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fftmatvec_core::{
    workspace_retention_cap, BlockToeplitzOperator, FftMatvec, LinearOperator, OpDirection,
};
use fftmatvec_numeric::SplitMix64;
use fftmatvec_service::{OperatorRegistry, Service, ServiceConfig};

const ND: usize = 3;
const NM: usize = 4;
const NT: usize = 64;

fn build_pipeline(seed: u64) -> FftMatvec {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; NT * ND * NM];
    rng.fill_uniform(&mut col, -1.0, 1.0);
    FftMatvec::builder(BlockToeplitzOperator::from_first_block_column(ND, NM, NT, &col).unwrap())
        .build()
        .unwrap()
}

fn request_input(len: usize, thread: usize, i: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(0x57AB1E ^ ((thread as u64) << 32) ^ i as u64);
    let mut x = vec![0.0; len];
    rng.fill_uniform(&mut x, -1.0, 1.0);
    x
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: bit mismatch at element {i}: got {g:?}, want {w:?}"
        );
    }
}

#[test]
fn concurrent_submitters_stay_bit_exact_and_leak_no_workspaces() {
    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 32;

    let served = Arc::new(build_pipeline(11));
    let reference = Arc::new(build_pipeline(11));
    let registry = Arc::new(OperatorRegistry::new());
    registry.register("op", Arc::clone(&served) as Arc<dyn LinearOperator + Send + Sync>);

    let service = Service::new(
        Arc::clone(&registry),
        ServiceConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(200),
            queue_capacity: 4096,
            workers: 4,
        },
    );

    std::thread::scope(|scope| {
        for t in 0..SUBMITTERS {
            let service = &service;
            let reference = Arc::clone(&reference);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let dir =
                        if (t + i) % 2 == 0 { OpDirection::Forward } else { OpDirection::Adjoint };
                    let (in_len, out_len) = reference.shape().io_lens(dir);
                    let x = request_input(in_len, t, i);
                    let got = service.submit("op", dir, x.clone()).unwrap().wait().unwrap();
                    let mut want = vec![0.0; out_len];
                    reference.apply_into(dir, &x, &mut want).unwrap();
                    assert_bits_eq(&got, &want, &format!("thread {t} request {i} {dir:?}"));
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.completed, (SUBMITTERS * PER_THREAD) as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.expired, 0);
    drop(service);

    // Every batch window returned its checkout; retention stayed bounded.
    assert_eq!(served.workspaces_in_flight(), 0);
    assert!(
        served.workspaces_pooled() <= workspace_retention_cap(),
        "pool retains {} > cap {}",
        served.workspaces_pooled(),
        workspace_retention_cap()
    );
}

/// An admission is counted before the worker can see the request, so
/// `completed + expired + failed + panicked ≤ submitted` holds at every
/// `stats()` call — also for lone requests on lanes that dispatch at
/// once, which settle within microseconds of the push.
#[test]
fn no_snapshot_shows_more_settled_than_submitted() {
    const PER_THREAD: usize = 600;
    let dirs = [OpDirection::Forward, OpDirection::Adjoint];

    let registry = Arc::new(OperatorRegistry::new());
    registry.register("op", Arc::new(build_pipeline(31)));
    let service = Service::new(Arc::clone(&registry), ServiceConfig::default());
    let done = AtomicBool::new(false);

    let snapshots = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut snapshots = 0u64;
            while !done.load(Ordering::Acquire) {
                let s = service.stats();
                let settled = s.completed + s.expired + s.failed + s.panicked;
                assert!(
                    settled <= s.submitted,
                    "snapshot {snapshots}: {settled} settled > {} submitted",
                    s.submitted
                );
                snapshots += 1;
            }
            snapshots
        });
        // One closed-loop caller per lane; every eighth request carries a
        // lapsed deadline so `expired` takes part in the sum.
        let callers: Vec<_> = dirs
            .iter()
            .enumerate()
            .map(|(t, &dir)| {
                let service = &service;
                scope.spawn(move || {
                    let (in_len, out_len) = service.registry().shape_of("op").unwrap().io_lens(dir);
                    for i in 0..PER_THREAD {
                        let x = request_input(in_len, t, i);
                        if i % 8 == 7 {
                            let ticket =
                                service.submit_with_deadline("op", dir, x, Duration::ZERO).unwrap();
                            assert!(ticket.wait().is_err());
                        } else {
                            assert_eq!(
                                service.submit("op", dir, x).unwrap().wait().unwrap().len(),
                                out_len
                            );
                        }
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().unwrap();
        }
        done.store(true, Ordering::Release);
        watcher.join().unwrap()
    });

    let stats = service.stats();
    assert!(snapshots > 0);
    assert_eq!(stats.submitted, (dirs.len() * PER_THREAD) as u64);
    assert_eq!(stats.expired, (dirs.len() * PER_THREAD / 8) as u64);
    assert_eq!(stats.completed + stats.expired, stats.submitted);
}

#[test]
fn direct_concurrent_batch_windows_never_alias() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 12;
    const BATCH: usize = 4;

    let shared = Arc::new(build_pipeline(23));
    let reference = build_pipeline(23);
    let shape = shared.shape();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = Arc::clone(&shared);
            let reference = &reference;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    let dir =
                        if (t + r) % 2 == 0 { OpDirection::Forward } else { OpDirection::Adjoint };
                    let (in_len, out_len) = shape.io_lens(dir);
                    let mut inputs = Vec::with_capacity(BATCH * in_len);
                    for b in 0..BATCH {
                        inputs.extend_from_slice(&request_input(in_len, t, r * BATCH + b));
                    }
                    let mut outputs = vec![0.0; BATCH * out_len];
                    shared.apply_many_into(dir, &inputs, &mut outputs).unwrap();

                    let mut want = vec![0.0; out_len];
                    for (b, (x, got)) in
                        inputs.chunks_exact(in_len).zip(outputs.chunks_exact(out_len)).enumerate()
                    {
                        reference.apply_into(dir, x, &mut want).unwrap();
                        assert_bits_eq(got, &want, &format!("thread {t} round {r} item {b}"));
                    }
                }
            });
        }
    });

    assert_eq!(shared.workspaces_in_flight(), 0);
    assert!(shared.workspaces_peak_in_flight() >= 1);
    assert!(shared.workspaces_pooled() <= workspace_retention_cap());
}
