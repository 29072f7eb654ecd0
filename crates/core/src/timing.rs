//! Simulated GPU phase timings for one matvec.
//!
//! Builds one [`KernelProfile`] per pipeline phase from the problem
//! dimensions and the precision configuration, and evaluates them on a
//! [`DeviceSpec`]. This regenerates the runtime breakdowns of Figures 2
//! and 3: the SBGEMV streams the whole `F̂` (the only phase touching the
//! matrix) and dominates at the paper's shapes; FFT/IFFT and the memory
//! phases are lower-order. Reorder (TOSI↔SOTI) traffic is charged to the
//! SBGEMV phase, matching the paper's timing convention ("The SBGEMV time
//! includes the SOTI-to-TOSI and TOSI-to-SOTI times").
//!
//! [`simulate_phases`] is the one block-triangular assembly: the figure
//! binaries, the Pareto sweeps, the simulated device's ledger (through
//! `SbgemvKernel`'s `SpectralKernel::modeled_phases`) and
//! [`simulate_on_grid`] — the same compute plus the process grid's
//! collectives — all read it.

use fftmatvec_blas::{kernel_profile, select_kernel, GemvOp};
use fftmatvec_comm::{NetworkModel, ProcessGrid};
use fftmatvec_gpu::kernel::dtype_for;
use fftmatvec_gpu::{DeviceSpec, KernelProfile, Phase, PhaseTimes};

use crate::precision::{MatvecPhase, PrecisionConfig};

/// Local problem dimensions of one GPU's share of the matvec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatvecDims {
    /// Local sensor count `n_d`.
    pub nd: usize,
    /// Local parameter count `n_m`.
    pub nm: usize,
    /// Timesteps `N_t` (never partitioned).
    pub nt: usize,
}

impl MatvecDims {
    pub fn new(nd: usize, nm: usize, nt: usize) -> Self {
        assert!(nd > 0 && nm > 0 && nt > 0);
        MatvecDims { nd, nm, nt }
    }

    /// The paper's single-GPU test shape (Sections 4.1.2/4.2.1).
    pub fn paper_single_gpu() -> Self {
        MatvecDims { nd: 100, nm: 5000, nt: 1000 }
    }

    /// Frequency count `N_t + 1`.
    pub fn nfreq(&self) -> usize {
        self.nt + 1
    }
}

/// Phase times of one matvec on one device.
///
/// `adjoint = false` models `F` (NoTrans GEMV), `adjoint = true` models
/// `F*` (ConjTrans GEMV — the kernel the paper optimized).
pub fn simulate_phases(
    dims: MatvecDims,
    cfg: PrecisionConfig,
    adjoint: bool,
    dev: &DeviceSpec,
) -> PhaseTimes {
    let (n_in, n_out, gemv_op) = if adjoint {
        (dims.nd, dims.nm, GemvOp::ConjTrans)
    } else {
        (dims.nm, dims.nd, GemvOp::NoTrans)
    };
    let nfreq = dims.nfreq();
    let p1 = cfg.phase(MatvecPhase::Pad);
    let p2 = cfg.phase(MatvecPhase::Fft);
    let p3 = cfg.phase(MatvecPhase::Sbgemv);
    let p4 = cfg.phase(MatvecPhase::Ifft);
    let p5 = cfg.phase(MatvecPhase::Unpad);

    let mut times = PhaseTimes::new();

    // Phase 1: read the double input, write the padded vector in p1
    // (casts fused — no extra traffic).
    let pad = KernelProfile::streaming(
        "pad",
        dtype_for(false, p1),
        (n_in * dims.nt * 8) as f64,
        (n_in * 2 * dims.nt * p1.real_bytes()) as f64,
    );
    times.add(Phase::Pad, pad.estimate_time(dev));

    // Phase 2: batched R2C FFT in p2.
    let fft = KernelProfile::real_fft("fft", p2, 2 * dims.nt, n_in);
    times.add(Phase::Fft, fft.estimate_time(dev));

    // Phase 3: reorder in (SOTI→TOSI, boundary precision), SBGEMV, reorder
    // out — all charged to the SBGEMV phase.
    let b23 = p2.min(p3);
    let reorder_in = KernelProfile::streaming(
        "soti2tosi",
        dtype_for(true, b23),
        (n_in * nfreq * p2.complex_bytes()) as f64,
        (n_in * nfreq * p3.complex_bytes()) as f64,
    );
    let kernel = select_kernel(gemv_op, dims.nd, dims.nm);
    let gemv = kernel_profile(kernel, gemv_op, dtype_for(true, p3), dims.nd, dims.nm, nfreq);
    let b34 = p3.min(p4);
    let reorder_out = KernelProfile::streaming(
        "tosi2soti",
        dtype_for(true, b34),
        (n_out * nfreq * p3.complex_bytes()) as f64,
        (n_out * nfreq * p4.complex_bytes()) as f64,
    );
    times.add(
        Phase::Sbgemv,
        reorder_in.estimate_time(dev) + gemv.estimate_time(dev) + reorder_out.estimate_time(dev),
    );

    // Phase 4: batched C2R IFFT in p4.
    let ifft = KernelProfile::real_fft("ifft", p4, 2 * dims.nt, n_out);
    times.add(Phase::Ifft, ifft.estimate_time(dev));

    // Phase 5: unpad to the double output through p5.
    let unpad = KernelProfile::streaming(
        "unpad",
        dtype_for(false, p5),
        (n_out * 2 * dims.nt * p4.real_bytes()) as f64,
        (n_out * dims.nt * 8) as f64,
    );
    times.add(Phase::Unpad, unpad.estimate_time(dev));

    times
}

/// Modeled matvec time of a `global` problem partitioned over `grid`:
/// the slowest rank's compute (rank (0,0) owns the `⌈·⌉` chunk sizes)
/// plus the grid's collectives under `net`, which move one column's input
/// slice in the Pad tier and one row's output slice in the Unpad tier.
pub fn simulate_on_grid(
    global: MatvecDims,
    grid: &ProcessGrid,
    cfg: PrecisionConfig,
    adjoint: bool,
    dev: &DeviceSpec,
    net: &NetworkModel,
) -> PhaseTimes {
    let local =
        MatvecDims::new(global.nd.div_ceil(grid.rows), global.nm.div_ceil(grid.cols), global.nt);
    let mut times = simulate_phases(local, cfg, adjoint, dev);
    let m_col_bytes = (local.nm * local.nt * cfg.phase(MatvecPhase::Pad).real_bytes()) as f64;
    let d_row_bytes = (local.nd * local.nt * cfg.phase(MatvecPhase::Unpad).real_bytes()) as f64;
    let comm = if adjoint {
        net.adjoint_matvec_comm(grid, m_col_bytes, d_row_bytes)
    } else {
        net.forward_matvec_comm(grid, m_col_bytes, d_row_bytes)
    };
    times.add(Phase::Comm, comm);
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbgemv_dominates_at_paper_shape() {
        // Figure 2: SBGEMV ≈ 92% of the runtime at N_m=5000, N_d=100,
        // N_t=1000 (it is the only phase streaming the matrix).
        let dims = MatvecDims::paper_single_gpu();
        for dev in DeviceSpec::paper_lineup() {
            let t = simulate_phases(dims, PrecisionConfig::all_double(), false, &dev);
            let frac = t.fraction(Phase::Sbgemv);
            assert!((0.80..0.99).contains(&frac), "{}: SBGEMV fraction {frac:.3}", dev.name);
        }
    }

    #[test]
    fn paper_shape_totals_are_pinned() {
        // The totals `fig2_breakdown` / `fft_matvec` print (ms, F / F*):
        // any change to a profile or a device cap moves these digits.
        let dims = MatvecDims::paper_single_gpu();
        let cfg = PrecisionConfig::all_double();
        let printed = [("7.349", "7.178"), ("2.282", "2.229"), ("2.851", "2.783")];
        for (dev, (f, fs)) in DeviceSpec::paper_lineup().iter().zip(printed) {
            let ms =
                |adjoint| format!("{:.3}", simulate_phases(dims, cfg, adjoint, dev).total() * 1e3);
            assert_eq!((ms(false).as_str(), ms(true).as_str()), (f, fs), "{}", dev.name);
        }
    }

    #[test]
    fn grid_model_is_compute_plus_the_grids_collectives() {
        let global = MatvecDims::new(100, 5000 * 16, 1000);
        let (dev, net) = (DeviceSpec::mi250x_gcd(), NetworkModel::frontier());
        let cfg = PrecisionConfig::optimal_forward();
        let grid = ProcessGrid::new(2, 8);
        let local = MatvecDims::new(50, 5000 * 2, 1000);
        for adjoint in [false, true] {
            let t = simulate_on_grid(global, &grid, cfg, adjoint, &dev, &net);
            let compute = simulate_phases(local, cfg, adjoint, &dev);
            for p in Phase::COMPUTE {
                assert_eq!(t.get(p), compute.get(p), "{}", p.label());
            }
            // dssdd: both collectives move double-precision slices.
            let (m_col, d_row) = ((local.nm * 1000 * 8) as f64, (local.nd * 1000 * 8) as f64);
            let comm = if adjoint {
                net.adjoint_matvec_comm(&grid, m_col, d_row)
            } else {
                net.forward_matvec_comm(&grid, m_col, d_row)
            };
            assert_eq!(t.get(Phase::Comm), comm);
        }
        let single = simulate_on_grid(global, &ProcessGrid::single(), cfg, false, &dev, &net);
        assert_eq!(single, simulate_phases(global, cfg, false, &dev));
    }

    #[test]
    fn runtime_tracks_peak_bandwidth_ordering() {
        // Figure 2: performance "approximately correlates" with peak
        // bandwidth. MI250X is the clear laggard; MI300X and MI355X sit
        // near parity because the MI355X's ~35% SBGEMV efficiency (CDNA4
        // kernels untuned, Section 4.1.2) eats most of its 8 TB/s edge.
        let dims = MatvecDims::paper_single_gpu();
        let cfg = PrecisionConfig::all_double();
        let lineup = DeviceSpec::paper_lineup();
        let t: Vec<f64> =
            lineup.iter().map(|d| simulate_phases(dims, cfg, false, d).total()).collect();
        assert!(t[0] > 2.0 * t[1], "MI250X {} should dwarf MI300X {}", t[0], t[1]);
        assert!(t[0] > 2.0 * t[2], "MI250X {} should dwarf MI355X {}", t[0], t[2]);
        let parity = t[2] / t[1];
        assert!((0.6..1.35).contains(&parity), "MI355X/MI300X ratio {parity}");
        // MI250X-GCD double-precision matvec lands in the paper's ~5-10 ms.
        assert!(t[0] > 3e-3 && t[0] < 1.5e-2, "MI250X total {}", t[0]);
    }

    #[test]
    fn optimal_config_speedups_match_figure3() {
        let dims = MatvecDims::paper_single_gpu();
        let double = PrecisionConfig::all_double();
        let mixed = PrecisionConfig::optimal_forward();
        let speedup = |dev: &DeviceSpec| {
            simulate_phases(dims, double, false, dev).total()
                / simulate_phases(dims, mixed, false, dev).total()
        };
        // 70–95% on MI250X/MI300X; ~40% on MI355X.
        let s250 = speedup(&DeviceSpec::mi250x_gcd());
        let s300 = speedup(&DeviceSpec::mi300x());
        let s355 = speedup(&DeviceSpec::mi355x());
        assert!((1.60..2.00).contains(&s250), "MI250X speedup {s250}");
        assert!((1.70..2.00).contains(&s300), "MI300X speedup {s300}");
        assert!((1.25..1.55).contains(&s355), "MI355X speedup {s355}");
    }

    #[test]
    fn adjoint_uses_optimized_kernel_and_stays_close_to_forward() {
        // Section 4.1.2: with the optimized conjugate-transpose kernel, F
        // and F* run at similar speed.
        let dims = MatvecDims::paper_single_gpu();
        let cfg = PrecisionConfig::all_double();
        for dev in DeviceSpec::paper_lineup() {
            let f = simulate_phases(dims, cfg, false, &dev).total();
            let fs = simulate_phases(dims, cfg, true, &dev).total();
            let ratio = fs / f;
            assert!(
                (0.7..1.4).contains(&ratio),
                "{}: F*={fs:.4} F={f:.4} ratio {ratio:.2}",
                dev.name
            );
        }
    }

    #[test]
    fn single_precision_phases_get_cheaper() {
        let dims = MatvecDims::paper_single_gpu();
        let dev = DeviceSpec::mi300x();
        let td = simulate_phases(dims, PrecisionConfig::all_double(), false, &dev);
        let ts = simulate_phases(dims, PrecisionConfig::all_single(), false, &dev);
        for p in Phase::COMPUTE {
            assert!(
                ts.get(p) < td.get(p) * 1.01,
                "{}: single {} vs double {}",
                p.label(),
                ts.get(p),
                td.get(p)
            );
        }
        // Overall close to 2× (everything is bytes-bound).
        let s = td.total() / ts.total();
        assert!(s > 1.5, "all-single speedup {s}");
    }

    #[test]
    fn non_gemv_phases_are_minor_but_nonzero() {
        let dims = MatvecDims::paper_single_gpu();
        let dev = DeviceSpec::mi300x();
        let t = simulate_phases(dims, PrecisionConfig::all_double(), false, &dev);
        for p in [Phase::Pad, Phase::Fft, Phase::Ifft, Phase::Unpad] {
            assert!(t.get(p) > 0.0, "{} should cost something", p.label());
            assert!(t.fraction(p) < 0.15, "{} fraction too large", p.label());
        }
    }
}
