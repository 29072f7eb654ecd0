//! Figure 4 — weak scaling of the optimal mixed-precision configuration,
//! 8 → 4,096 GPUs on simulated Frontier.
//!
//! Global problem: `N_m = 5000·p`, `N_d = 100`, `N_t = 1000`. Grid shapes
//! follow the paper's communication-aware partitioning (1 row ≤ 512 GPUs,
//! 8 rows at 1,024–2,048, 16 at 4,096); configs are `dssdd` below 512
//! GPUs and `dssds` from 512 up (the measured optima).
//!
//! Times: per-rank cost model + Frontier network model at the full paper
//! scale. Errors: real distributed arithmetic on a memory-scaled problem
//! with the *same grid shapes* (`-escale` controls the per-GPU width).
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin fig4_scaling`
//! Flags: `-maxp <int>` (default 4096), `-escale <int>` (default 8)

use fftmatvec_bench::{rule, stuffed_vector, Args};
use fftmatvec_comm::partition::PartitionProblem;
use fftmatvec_comm::{choose_grid, NetworkModel, PartitionStrategy, ProcessGrid};
use fftmatvec_core::timing::{simulate_on_grid, MatvecDims};
use fftmatvec_core::{DistributedFftMatvec, LinearOperator, PrecisionConfig};
use fftmatvec_gpu::DeviceSpec;
use fftmatvec_numeric::vecmath::rel_l2_error;
use fftmatvec_numeric::SplitMix64;

/// Modeled matvec total for one GPU count at full paper scale.
fn modeled_total(
    p: usize,
    grid: &ProcessGrid,
    cfg: PrecisionConfig,
    dev: &DeviceSpec,
    net: &NetworkModel,
) -> f64 {
    simulate_on_grid(MatvecDims::new(100, 5000 * p, 1000), grid, cfg, false, dev, net).total()
}

/// Real distributed error at a scaled shape with the same grid.
fn measured_error(p: usize, grid: ProcessGrid, cfg: PrecisionConfig, escale: usize) -> f64 {
    let nd = 16usize.max(grid.rows);
    let nm = escale * p;
    let nt = 32usize;
    let mut rng = SplitMix64::new(1000 + p as u64);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, -1.0, 1.0);
    let m = stuffed_vector(nm * nt, 77);

    let baseline = {
        let single = DistributedFftMatvec::from_global(
            nd,
            nm,
            nt,
            &col,
            ProcessGrid::single(),
            PrecisionConfig::all_double(),
        )
        .unwrap();
        single.apply_forward(&m).expect("weak-scaling shapes")
    };
    let dist = DistributedFftMatvec::from_global(nd, nm, nt, &col, grid, cfg).unwrap();
    rel_l2_error(&dist.apply_forward(&m).expect("weak-scaling shapes"), &baseline)
}

fn main() {
    let args = Args::from_env();
    let maxp = args.get("maxp", 4096usize);
    let escale = args.get("escale", 8usize);
    let dev = DeviceSpec::mi250x_gcd();
    let net = NetworkModel::frontier();

    println!("Figure 4 — Mixed-Precision Matvec Weak Scaling on simulated Frontier");
    println!("global: N_m = 5000*p, N_d = 100, N_t = 1000 (timing model at full scale)");
    println!(
        "error measurement: real distributed arithmetic at N_m = {escale}*p, N_d = 16, N_t = 32"
    );
    println!();
    let header = format!(
        "{:>6} | {:>9} | {:>7} | {:>11} | {:>11} | {:>8} | {:>10}",
        "GPUs", "grid", "config", "double ms", "mixed ms", "speedup", "rel error"
    );
    println!("{header}");
    rule(header.len());

    let mut p = 8usize;
    while p <= maxp {
        let prob = PartitionProblem { nd: 100, nm: 5000 * p, nt: 1000, elem_bytes: 8 };
        let grid = choose_grid(PartitionStrategy::FrontierCalibrated, p, &prob, &net);
        let cfg = if p < 512 {
            PrecisionConfig::optimal_forward() // dssdd
        } else {
            PrecisionConfig::optimal_forward_at_scale() // dssds
        };
        let t_double = modeled_total(p, &grid, PrecisionConfig::all_double(), &dev, &net);
        let t_mixed = modeled_total(p, &grid, cfg, &dev, &net);
        let err = measured_error(p, grid, cfg, escale);
        println!(
            "{:>6} | {:>4}x{:<4} | {:>7} | {:>11.3} | {:>11.3} | {:>7.2}x | {:>10.2e}",
            p,
            grid.rows,
            grid.cols,
            cfg.to_string(),
            t_double * 1e3,
            t_mixed * 1e3,
            t_double / t_mixed,
            err
        );
        p *= 2;
    }
    println!();
    println!("paper reference: speedup ~1.5-1.6x at small p declining toward ~1.1x at 4,096;");
    println!("                 rel error ~5e-8 at small p, rising under 1e-6 past 512 GPUs");
    println!("                 (p_r grows 1 -> 8 -> 16, so n_m = N_m/p_c grows and the");
    println!("                 SBGEMV term eps*n_m dominates); ~0.11 s/matvec at 4,096 GPUs.");
}
