//! Electromagnetic-scattering walkthrough for the multi-level Toeplitz
//! subsystem: a volume-integral-equation system matrix on a regular 2-D
//! grid is two-level Toeplitz (translation-invariant Green's function),
//! so its matvec runs through nested FFTs instead of a dense matrix.
//!
//! The demo builds the operator, checks it against the dense matrix it
//! stands for, shows what the real, pruned embedding keeps in memory
//! beside the logical circulant grid, autotunes a precision
//! configuration against an error budget, then registers the operator
//! as a *tunable* service and drives budget-routed traffic through the
//! coalescing queue, mirroring `serve_traffic.rs`.
//!
//! Run: `cargo run --release --example em_scattering`

use std::sync::Arc;
use std::time::Duration;

use fftmatvec::core::{LinearOperator, OpDirection};
use fftmatvec::numeric::SplitMix64;
use fftmatvec::service::{
    block_on, join_all, OperatorRegistry, Service, ServiceConfig, ServiceError,
};
use fftmatvec::toeplitz::{ToeplitzGenerator, TwoLevelToeplitz};

/// Discretized free-space kernel on an `n × n` grid: the interaction
/// between cells at lattice offset `(dx, dy)` decays like `1/(1 + r²)`,
/// with a dominant self-term — translation invariance makes the
/// assembled system matrix two-level Toeplitz, and the generator is just
/// this kernel tabulated over all offsets.
fn scattering_generator(n: usize) -> ToeplitzGenerator {
    let diags = 2 * n - 1;
    let mut g = vec![0.0; diags * diags];
    for (k1, row) in g.chunks_exact_mut(diags).enumerate() {
        let dx = k1 as f64 - (n as f64 - 1.0);
        for (k2, v) in row.iter_mut().enumerate() {
            let dy = k2 as f64 - (n as f64 - 1.0);
            let r2 = dx * dx + dy * dy;
            *v = if r2 == 0.0 { 4.0 } else { 0.25 / (1.0 + r2) };
        }
    }
    ToeplitzGenerator::two_level((n, n), (n, n), g).expect("valid two-level generator")
}

fn main() -> Result<(), ServiceError> {
    // --- Build: real, pruned circulant embedding ---------------------
    // The system matrix embeds in a (2n)×(2n) circulant, but the
    // generator is real and three quarters of the padded input are
    // zeros: the pipeline stores half the spectrum and never transforms
    // a row of the grid that is known to be zero.
    let n = 16usize;
    let gen = scattering_generator(n);
    let op = TwoLevelToeplitz::builder(gen.clone()).build()?;
    println!(
        "operator: {} x {} (grid {n}x{n}), kappa ~ {:.1}",
        op.shape().rows,
        op.shape().cols,
        op.condition_estimate()
    );

    // The FFT path against the dense matrix it replaces.
    let mut rng = SplitMix64::new(2025);
    let mut x = vec![0.0; op.shape().cols];
    rng.fill_uniform(&mut x, -1.0, 1.0);
    let y = op.apply_forward(&x)?;
    let dense = gen.dense();
    let cols = op.shape().cols;
    let diff: f64 = y
        .iter()
        .zip(dense.chunks_exact(cols))
        .map(|(got, row)| got - row.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>())
        .map(|d| d * d)
        .sum::<f64>()
        .sqrt();
    let sym = op.symbol_shared();
    println!(
        "fft vs dense: |diff| = {diff:.2e}; logical grid {:?} = {} complex values, stored \
         spectrum {} ({:.0}%), peak workspace {} bytes ({:.0}% of two complex grids)",
        sym.work_dims(),
        sym.grid_len(),
        sym.spectrum_len(),
        100.0 * sym.spectrum_len() as f64 / sym.grid_len() as f64,
        op.workspace_peak_bytes(),
        100.0 * op.workspace_peak_bytes() as f64 / (2 * 16 * sym.grid_len()) as f64
    );

    // Nested plans come from the process-wide cache: the inner `planBlock`
    // is one shared handle across every operator of that block size.
    let again = TwoLevelToeplitz::builder(gen.clone()).build()?;
    assert!(Arc::ptr_eq(&op.plan_block(), &again.plan_block()));

    // --- Budgeted autotune on the operator itself --------------------
    // `retune_budget` installs the cheapest 4-tier configuration whose
    // Eq. 6 bound clears the budget; on failure the previous
    // configuration is untouched.
    let mut tuned = again;
    for budget in [1e-3, 1e-9] {
        let choice =
            tuned.retune_budget(OpDirection::Forward, budget).map_err(ServiceError::from)?;
        println!(
            "budget {budget:>5.0e} -> config {} (bound {:.2e})",
            choice.config, choice.bound.total
        );
    }

    // --- Serve it: tunable registration + budget-routed traffic ------
    let registry = Arc::new(OperatorRegistry::new());
    registry.register_toeplitz_tunable("em2d", TwoLevelToeplitz::builder(gen))?;
    println!("registered operators: {:?}", registry.names());

    let mut service = Service::new(
        Arc::clone(&registry),
        ServiceConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_capacity: 64,
            workers: 1,
        },
    );

    // A mixed-budget burst: loose budgets may resolve to narrow tiers,
    // tight ones force wide — each budget decade gets its own coalescing
    // lane, so every caller's results stay bit-deterministic.
    let budgets = [1e-2, 1e-10];
    let in_len = n * n;
    let tickets: Vec<_> = (0..16)
        .map(|i| {
            let mut rng = SplitMix64::new(100 + i as u64);
            let mut e_inc = vec![0.0; in_len];
            rng.fill_uniform(&mut e_inc, -1.0, 1.0);
            service.submit_with_budget("em2d", OpDirection::Forward, budgets[i % 2], e_inc)
        })
        .collect::<Result<_, _>>()?;
    let outputs = block_on(join_all(tickets));
    let served = outputs.iter().filter(|o| o.is_ok()).count();
    println!("burst: {served}/16 served");
    for budget in budgets {
        let cfg = service.resolved_config("em2d", OpDirection::Forward, budget).unwrap();
        println!("budget {budget:>6.0e} resolved to config {cfg}");
    }

    // The adjoint lane resolves independently (Eq. 6 swaps the reduction
    // extents), and plain submits use the registered configuration.
    let adj = service
        .submit_with_budget("em2d", OpDirection::Adjoint, 1e-6, vec![0.5; in_len])?
        .wait()?;
    println!("adjoint budget request: output length {}", adj.len());
    let plain = service.submit("em2d", OpDirection::Forward, vec![0.5; in_len])?.wait()?;
    println!("plain request: output length {}", plain.len());

    // --- Stats + shutdown --------------------------------------------
    let stats = service.stats();
    println!(
        "stats: {} submitted, {} completed over {} windows; autotuned {} via {:?}",
        stats.submitted, stats.completed, stats.batches, stats.autotuned, stats.configs_served
    );
    service.shutdown();
    println!("service drained and shut down");
    Ok(())
}
