//! The paper's first-order error bound (Section 3.2.1, Eq. 6).
//!
//! For the F matvec on a `p_r × p_c` grid:
//!
//! ```text
//! ‖δv₅‖/‖v₅‖ ≤ κ(F̂)·[ c₁ε₁ + (c_F·ε_d + c₂ε₂ + c₄ε₄)·log₂(N_t)
//!                      + c₃ε₃·n_m + c₅ε₅·log₂(p_c) ]
//! ```
//!
//! with `n_m = ⌈N_m/p_c⌉`, `ε_i` the machine epsilon of phase `i`'s
//! precision, `c₁ = 0` when phase 1 is double (a pure memory op is exact
//! in the input precision), and all other `c_i` treated as 1. The F*
//! bound swaps `n_m → n_d = ⌈N_d/p_r⌉` and `p_c → p_r`.

use fftmatvec_numeric::{Complex, Precision, C64};

use crate::linop::{ConfigurableOperator, OpDirection, OpError};
use crate::operator::BlockToeplitzOperator;
use crate::precision::{MatvecPhase, PrecisionConfig};

/// Inputs to the bound besides the precision configuration.
#[derive(Clone, Copy, Debug)]
pub struct BoundParams {
    /// Timesteps `N_t`.
    pub nt: usize,
    /// The local SBGEMV reduction length: `n_m` for F, `n_d` for F*.
    pub n_local: usize,
    /// Ranks the phase-5 reduction spans: `p_c` for F, `p_r` for F*.
    pub reduce_ranks: usize,
    /// Condition number (estimate) of `F̂`.
    pub kappa: f64,
}

impl BoundParams {
    /// Eq. 6 parameters for the **forward** matvec `d = F·m`: the GEMV
    /// reduces over `n_m = ⌈N_m/p_c⌉` and phase 5 reduces across the
    /// `p_c` column ranks.
    pub fn forward(nt: usize, nm: usize, p_c: usize, kappa: f64) -> Self {
        let p_c = p_c.max(1);
        BoundParams { nt, n_local: nm.div_ceil(p_c), reduce_ranks: p_c, kappa }
    }

    /// Eq. 6 parameters for the **adjoint** matvec `m = F*·d` — the
    /// documented `n_m → n_d = ⌈N_d/p_r⌉`, `p_c → p_r` swap.
    pub fn adjoint(nt: usize, nd: usize, p_r: usize, kappa: f64) -> Self {
        let p_r = p_r.max(1);
        BoundParams { nt, n_local: nd.div_ceil(p_r), reduce_ranks: p_r, kappa }
    }

    /// Direction-dispatching constructor over a `p_r × p_c` grid.
    pub fn for_direction(
        dir: OpDirection,
        nt: usize,
        nd: usize,
        nm: usize,
        p_r: usize,
        p_c: usize,
        kappa: f64,
    ) -> Self {
        match dir {
            OpDirection::Forward => BoundParams::forward(nt, nm, p_c, kappa),
            OpDirection::Adjoint => BoundParams::adjoint(nt, nd, p_r, kappa),
        }
    }
}

/// The evaluated bound, with the per-phase contributions kept visible.
#[derive(Clone, Copy, Debug)]
pub struct ErrorBound {
    /// Phase-1 (pad/broadcast) term `c₁ε₁`.
    pub pad: f64,
    /// Setup + FFT + IFFT term `(ε_d + ε₂ + ε₄)·log₂(N_t)` pieces.
    pub transforms: f64,
    /// SBGEMV term `ε₃·n_local` — the dominant one.
    pub gemv: f64,
    /// Reduction term `ε₅·log₂(reduce_ranks)`.
    pub reduction: f64,
    /// κ·(sum of the above).
    pub total: f64,
}

/// Evaluate Eq. (6).
pub fn error_bound(cfg: PrecisionConfig, p: &BoundParams) -> ErrorBound {
    let e = |ph: MatvecPhase| cfg.phase(ph).epsilon();
    let log_nt = (p.nt.max(2) as f64).log2();
    let log_pc = if p.reduce_ranks > 1 { (p.reduce_ranks as f64).log2() } else { 0.0 };

    let pad =
        if cfg.phase(MatvecPhase::Pad) == Precision::Double { 0.0 } else { e(MatvecPhase::Pad) };
    let transforms =
        (Precision::Double.epsilon() + e(MatvecPhase::Fft) + e(MatvecPhase::Ifft)) * log_nt;
    let gemv = e(MatvecPhase::Sbgemv) * p.n_local as f64;
    // The paper's Eq. (6) charges phase 5 only for the reduction
    // (log₂ p_c); but a single-precision phase-5 *memory op* also rounds
    // the final output once, exactly like the phase-1 term — include it,
    // or the bound is violated by `dddds` on a single rank.
    let unpad_memop = if cfg.phase(MatvecPhase::Unpad) == Precision::Double {
        0.0
    } else {
        e(MatvecPhase::Unpad)
    };
    let reduction = unpad_memop + e(MatvecPhase::Unpad) * log_pc;
    let total = p.kappa * (pad + transforms + gemv + reduction);
    ErrorBound { pad, transforms, gemv, reduction, total }
}

/// Measured matvec error of `cfg` in direction `dir` against the
/// all-double baseline, next to its Eq. 6 prediction — for **any**
/// [`ConfigurableOperator`] realization. The bound-vs-measurement pairing
/// the paper's §4.2.1 validation plots are built from. Delegates the
/// measurement (and its restore-config-even-on-error discipline) to
/// [`crate::pareto::error_sweep`] so that logic lives in one place.
///
/// `params` must describe the same side of the operator as `dir`
/// (use [`BoundParams::forward`]/[`BoundParams::adjoint`]) — the F and
/// F* bounds differ in their GEMV reduction length, which is exactly why
/// the measurement direction is explicit here.
pub fn measured_vs_bound(
    op: &mut dyn ConfigurableOperator,
    dir: OpDirection,
    cfg: PrecisionConfig,
    params: &BoundParams,
    input: &[f64],
) -> Result<(f64, ErrorBound), OpError> {
    let errors = crate::pareto::error_sweep(op, dir, &[cfg], input)?;
    Ok((errors[0], error_bound(cfg, params)))
}

/// Estimate `κ(F̂)` — the condition number of the block-diagonal frequency
/// matrix: `max_k σ_max(F̂_k) / min_k σ_min(F̂_k)`.
///
/// Extreme singular values per frequency come from power iteration on
/// `B_k = F̂_k·F̂_kᴴ` (`n_d × n_d`) and on its spectral complement
/// `λ_max·I − B_k`. `freq_stride` subsamples the frequencies to bound the
/// cost at large `N_t` (pass 1 to scan all).
pub fn condition_estimate(op: &BlockToeplitzOperator, freq_stride: usize) -> f64 {
    let stride = freq_stride.max(1);
    let (nd, nm) = (op.nd(), op.nm());
    let mut sig_max: f64 = 0.0;
    let mut sig_min = f64::INFINITY;
    let mut f = 0;
    let mut block = vec![Complex::zero(); nd * nm];
    while f < op.nfreq() {
        // Column-major F̂_f, gathered from the frequency-minor store.
        for (e, z) in block.iter_mut().enumerate() {
            *z = op.fhat_at(f, e % nd, e / nd);
        }
        let b = gram(&block, nd, nm);
        let lmax = power_iterate(&b, nd, 40);
        // λ_min via power iteration on (λ_max·I − B).
        let shifted: Vec<C64> = (0..nd * nd)
            .map(|i| {
                let diag = i % nd == i / nd;
                let v = if diag { Complex::from_real(lmax) } else { Complex::zero() };
                v - b[i]
            })
            .collect();
        let mu = power_iterate(&shifted, nd, 40);
        let lmin = (lmax - mu).max(0.0);
        sig_max = sig_max.max(lmax.sqrt());
        sig_min = sig_min.min(lmin.max(1e-300).sqrt());
        f += stride;
    }
    (sig_max / sig_min).max(1.0)
}

/// `B = M·Mᴴ` for a column-major `nd × nm` block (B is `nd × nd`,
/// column-major).
fn gram(m: &[C64], nd: usize, nm: usize) -> Vec<C64> {
    let mut b = vec![Complex::zero(); nd * nd];
    for k in 0..nm {
        let col = &m[k * nd..(k + 1) * nd];
        for j in 0..nd {
            let cj = col[j].conj();
            for i in 0..nd {
                b[j * nd + i] += col[i] * cj;
            }
        }
    }
    b
}

/// Largest eigenvalue of a Hermitian PSD matrix by power iteration.
fn power_iterate(b: &[C64], n: usize, iters: usize) -> f64 {
    let mut v: Vec<C64> =
        (0..n).map(|i| Complex::new(1.0 + (i as f64) * 0.3, 0.5 - (i as f64) * 0.1)).collect();
    let mut lambda = 0.0;
    for _ in 0..iters {
        let mut w = vec![Complex::<f64>::zero(); n];
        for j in 0..n {
            let vj = v[j];
            for i in 0..n {
                w[i] += b[j * n + i] * vj;
            }
        }
        let norm: f64 = w.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm == 0.0 {
            return 0.0;
        }
        lambda = norm;
        let inv = 1.0 / norm;
        for (vi, &wi) in v.iter_mut().zip(&w) {
            *vi = wi.scale(inv);
        }
    }
    // For PSD B and normalized v, λ ≈ ‖Bv‖ at convergence.
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::SplitMix64;

    fn params(n_local: usize, ranks: usize) -> BoundParams {
        BoundParams { nt: 1000, n_local, reduce_ranks: ranks, kappa: 1.0 }
    }

    #[test]
    fn all_double_bound_is_tiny() {
        let b = error_bound(PrecisionConfig::all_double(), &params(5000, 1));
        assert_eq!(b.pad, 0.0);
        assert_eq!(b.reduction, 0.0);
        assert!(b.total < 1e-11, "double bound {}", b.total);
    }

    #[test]
    fn gemv_term_dominates_for_single_sbgemv() {
        // The paper: "the dominant error term comes from the SBGEMV".
        let cfg = PrecisionConfig::optimal_forward(); // dssdd
        let b = error_bound(cfg, &params(5000, 1));
        assert!(b.gemv > b.transforms);
        assert!(b.gemv > 10.0 * (b.pad + b.reduction + b.transforms));
        // ε_s·5000 ≈ 6e-4.
        assert!((b.gemv - f32::EPSILON as f64 * 5000.0).abs() < 1e-12);
    }

    #[test]
    fn bound_grows_with_local_width_and_ranks() {
        let cfg: PrecisionConfig = "dssds".parse().unwrap();
        let small = error_bound(cfg, &params(5000, 8));
        let wide = error_bound(cfg, &params(80_000, 8));
        let many = error_bound(cfg, &params(5000, 4096));
        assert!(wide.total > small.total, "n_local growth");
        assert!(many.total > small.total, "rank growth");
    }

    #[test]
    fn kappa_scales_linearly() {
        let cfg = PrecisionConfig::optimal_forward();
        let mut p = params(5000, 1);
        let b1 = error_bound(cfg, &p).total;
        p.kappa = 10.0;
        let b10 = error_bound(cfg, &p).total;
        assert!((b10 / b1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn single_phase5_memop_term_plus_rank_scaling() {
        let cfg: PrecisionConfig = "dddds".parse().unwrap();
        // One rank: the memory-op rounding alone (our Eq.-6 correction).
        let lone = error_bound(cfg, &params(100, 1));
        assert!((lone.reduction - f32::EPSILON as f64).abs() < 1e-12);
        // 256 ranks: memop + log2(256)·ε reduction error.
        let multi = error_bound(cfg, &params(100, 256));
        assert!((multi.reduction - f32::EPSILON as f64 * 9.0).abs() < 1e-10);
        // Double phase 5 contributes nothing on one rank.
        let dd = error_bound(PrecisionConfig::all_double(), &params(100, 1));
        assert_eq!(dd.reduction, 0.0);
    }

    #[test]
    fn bound_is_ordered_across_the_four_tiers() {
        // Per-phase ε drives Eq. 6, so uniform-tier bounds order by ε:
        // ddddd < dssdd < sssss < hhhhh < bbbbb. Note the two 16-bit
        // tiers order by accuracy (ε_h = 2⁻¹⁰ < ε_b = 2⁻⁷), *not* by the
        // lattice convention.
        let p = params(5000, 1);
        let total = |s: &str| error_bound(s.parse().unwrap(), &p).total;
        let (d, opt, s, h, b) =
            (total("ddddd"), total("dssdd"), total("sssss"), total("hhhhh"), total("bbbbb"));
        assert!(d < opt, "{d} !< {opt}");
        assert!(opt < s, "{opt} !< {s}");
        assert!(s < h, "{s} !< {h}");
        assert!(h < b, "{h} !< {b}");
        // The gemv term still dominates in the 16-bit tiers.
        let hb = error_bound("dhhdd".parse().unwrap(), &p);
        assert!(hb.gemv > 10.0 * (hb.pad + hb.transforms + hb.reduction));
        assert!((hb.gemv - Precision::Half.epsilon() * 5000.0).abs() < 1e-12);
    }

    #[test]
    fn measured_vs_bound_for_any_operator() {
        use crate::pipeline::FftMatvec;
        let (nd, nm, nt) = (2usize, 16usize, 8usize);
        let mut rng = SplitMix64::new(17);
        let mut col = vec![0.0; nt * nd * nm];
        rng.fill_uniform(&mut col, 0.0, 1.0);
        let op = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap();
        let mut m = vec![0.0; nm * nt];
        rng.fill_uniform_stuffed(&mut m, 0.0, 1.0);
        let mut mv = FftMatvec::builder(op).build().unwrap();
        let p = BoundParams { nt, n_local: nm, reduce_ranks: 1, kappa: 100.0 };
        let (measured, bound) =
            measured_vs_bound(&mut mv, OpDirection::Forward, "dssdd".parse().unwrap(), &p, &m)
                .unwrap();
        assert!(measured > 0.0, "stuffed input must measure error");
        assert!(measured <= bound.total, "measured {measured} above bound {}", bound.total);
        // Errors surface as values, not panics — and the operator's own
        // configuration survives the failed sweep.
        mv.set_config("ddssd".parse().unwrap());
        let r = measured_vs_bound(
            &mut mv,
            OpDirection::Forward,
            PrecisionConfig::all_double(),
            &p,
            &m[1..],
        );
        assert!(r.is_err());
        assert_eq!(mv.config(), "ddssd".parse().unwrap());
    }

    #[test]
    fn bound_params_constructors_swap_the_documented_dimensions() {
        // Forward: n_local = ⌈N_m/p_c⌉, reduce over p_c columns.
        let f = BoundParams::forward(1000, 5000, 8, 2.0);
        assert_eq!((f.n_local, f.reduce_ranks), (625, 8));
        // Adjoint: n_local = ⌈N_d/p_r⌉, reduce over p_r rows.
        let a = BoundParams::adjoint(1000, 300, 4, 2.0);
        assert_eq!((a.n_local, a.reduce_ranks), (75, 4));
        // Dispatch matches the explicit constructors.
        let viaf = BoundParams::for_direction(OpDirection::Forward, 1000, 300, 5000, 4, 8, 2.0);
        assert_eq!((viaf.n_local, viaf.reduce_ranks), (f.n_local, f.reduce_ranks));
        let viaa = BoundParams::for_direction(OpDirection::Adjoint, 1000, 300, 5000, 4, 8, 2.0);
        assert_eq!((viaa.n_local, viaa.reduce_ranks), (a.n_local, a.reduce_ranks));
        // Zero ranks clamp to a single rank instead of dividing by zero.
        assert_eq!(BoundParams::forward(10, 7, 0, 1.0).n_local, 7);
    }

    #[test]
    fn adjoint_measured_error_needs_the_adjoint_bound() {
        // Regression for the direction bug: the sweeps hard-coded
        // `apply_forward`, so an adjoint budget could only ever be
        // validated against the forward operator. Construct a tall
        // single-column operator (nd ≫ nm = 1, block 0 = 1/√nd ones):
        // every F̂_k is that same unit column, so κ(F̂) = 1 exactly. For
        // the paper's adjoint-optimal `ddssd`, the adjoint-side Eq. 6
        // prediction carries `ε₃·n_d = 4096·ε_s` where the forward side
        // carries `ε₃·n_m = ε_s` — the forward prediction is not a bound
        // anyone may promise for `F*`. Only the direction-aware pairing
        // measures the right operator against the right prediction.
        use crate::pipeline::FftMatvec;
        let (nd, nm, nt) = (4096usize, 1usize, 16usize);
        let mut col = vec![0.0; nt * nd * nm];
        let s = 1.0 / (nd as f64).sqrt();
        for i in 0..nd {
            col[i] = s; // block 0: the unit column; later blocks zero
        }
        let op = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap();
        // κ(F̂) = 1 by construction (each F̂_k has the single singular
        // value ‖column‖ = 1). `condition_estimate` is not usable here:
        // it power-iterates the nd × nd Gram matrix, which is rank-1 for
        // a single-column operator.
        let kappa = 1.0;

        let mut mv = FftMatvec::builder(op).build().unwrap();
        let cfg: PrecisionConfig = "ddssd".parse().unwrap();
        let adj_params = BoundParams::adjoint(nt, nd, 1, kappa);
        let fwd_params = BoundParams::forward(nt, nm, 1, kappa);
        let adj_bound_total = error_bound(cfg, &adj_params).total;
        let fwd_bound_total = error_bound(cfg, &fwd_params).total;
        assert!(
            fwd_bound_total < adj_bound_total / 50.0,
            "the documented n_m→n_d swap must separate the two sides: \
             fwd {fwd_bound_total} adj {adj_bound_total}"
        );

        // All-positive data keeps the same-sign accumulation honest.
        let mut rng = SplitMix64::new(101);
        let mut d = vec![0.0; nd * nt];
        rng.fill_uniform_stuffed(&mut d, 0.5, 1.0);
        let (adj_measured, adj_bound) =
            measured_vs_bound(&mut mv, OpDirection::Adjoint, cfg, &adj_params, &d).unwrap();
        assert!(adj_measured > 0.0);
        assert!(
            adj_measured <= adj_bound.total,
            "adjoint measured {adj_measured} must sit under the adjoint bound {}",
            adj_bound.total
        );
        // The old pairing could not even have produced this measurement:
        // feeding the adjoint-sized data to the forward operator — what
        // the direction-blind sweep did — is a length error on this
        // non-square shape.
        let err =
            measured_vs_bound(&mut mv, OpDirection::Forward, cfg, &fwd_params, &d).unwrap_err();
        assert_eq!(
            err,
            crate::linop::OpError::InputLength {
                dir: OpDirection::Forward,
                expected: nm * nt,
                got: nd * nt
            }
        );
    }

    #[test]
    fn condition_estimate_identity_like_operator() {
        // First block = I (padded), rest zero ⇒ F̂_k = I for every k ⇒ κ = 1.
        let (nd, nm, nt) = (3usize, 3usize, 4usize);
        let mut col = vec![0.0; nt * nd * nm];
        for i in 0..nd {
            col[i * nm + i] = 1.0;
        }
        let op = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap();
        let kappa = condition_estimate(&op, 1);
        assert!((kappa - 1.0).abs() < 1e-6, "kappa {kappa}");
    }

    #[test]
    fn condition_estimate_detects_scaling() {
        // Diagonal first block diag(1, 100): κ(F̂_k) = 100 at every k.
        let (nd, nm, nt) = (2usize, 2usize, 4usize);
        let mut col = vec![0.0; nt * nd * nm];
        col[0] = 1.0; // block 0, row 0, col 0
        col[nm + 1] = 100.0; // block 0, row 1, col 1
        let op = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap();
        let kappa = condition_estimate(&op, 1);
        assert!((kappa - 100.0).abs() / 100.0 < 0.05, "kappa {kappa}");
    }

    #[test]
    fn condition_estimate_random_operator_reasonable() {
        let mut rng = SplitMix64::new(3);
        let (nd, nm, nt) = (4usize, 16usize, 8usize);
        let mut col = vec![0.0; nt * nd * nm];
        rng.fill_uniform(&mut col, -1.0, 1.0);
        let op = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap();
        let kappa = condition_estimate(&op, 1);
        assert!(kappa >= 1.0 && kappa.is_finite());
        // Subsampling must not change the order of magnitude here.
        let coarse = condition_estimate(&op, 3);
        assert!(coarse <= kappa * 1.5 + 1.0);
    }
}
