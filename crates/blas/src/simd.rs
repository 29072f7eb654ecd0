//! The vector kernel of the SBGEMV the pipeline runs, and its epilogue.
//!
//! [`freq_tile`] offers one base run of the frequency-minor tile
//! recursion (`crate::kernels`) to a vector kernel, [`scale_tile`] the
//! tile's α/β epilogue; `false` means the caller must run its scalar
//! loop. Figure 1's block kernel (`crate::sbgemv`) has no vector tile: it
//! is the scalar reference, run through `fma_pass!` bodies
//! (`kernels::{notrans_pass, trans_pass}`), and only its epilogue comes
//! here.
//!
//! **Lanes run across outputs, never along the reduction.** A register
//! holds the accumulators of consecutive *frequencies* of one output
//! series and walks the reduction run sequentially, so every output sees
//! the *same accumulation chain* as in the scalar code and results are
//! bit-identical at every dispatch level. Splitting a lane along the
//! reduction would reassociate the sum; nothing here does. The pairwise
//! merge above the base case stays scalar: it is elementwise and cheap,
//! and the tree shape must not change. The sweep (`freq_regs_*` /
//! `freq_sweep_*` in [`x86`]) loads the reduction operand lane-wise like
//! the matrix entry (lane `f` pairs `a[r][f]` with `x[r][f]`), so it
//! reuses each `x` register across up to four output series.
//!
//! One series alone keeps [`x86::IN_FLIGHT`] independent accumulator
//! registers going: one register's chain is two dependent FMAs per step,
//! which alone leaves the FMA ports idle most cycles. Only the complex
//! `f32` / `f64` types have a vector kernel; the others take the scalar
//! FMA-context pass.
//!
//! **Registers across columns.** A batch of columns through one operator
//! runs [`freq_panel`]: per reduction step each of [`PANEL_ROWS`]
//! registers of `a` is loaded once and split (`cfma_lhs`: the `movedup`,
//! `permute` and sign `xor` of a complex product), and each of
//! [`PANEL_COLS`] columns' `x` registers is loaded and swapped once, so
//! the shuffles of one `cfma` are shared by eight products (`cfma_with`)
//! and the FMA ports, not the shuffle port, set the pace. Lanes still run
//! across frequencies and each accumulator walks the same chain as in the
//! one-column sweep, so every bit is that sweep's.
//!
//! **Frequencies past the last whole register** — `N_t + 1` frequencies
//! always leave some — run as one *masked* register (`maskload` /
//! `maskstore` of the lanes left over), so `k·LANES + r` frequencies cost
//! what `(k+1)·LANES` do. The epilogue's last elements run the scalar
//! `kernels::scale_run`, which is `#[inline(always)]` and therefore
//! compiled *here*, inside the tile's `avx2,fma` context, where a
//! `mul_add` is one `vfmadd` and not a call into libm `fma`.
//!
//! **Safety.** The sweep reads `a` and `x` through raw pointers and
//! relies on `kernels::FreqSweep`'s extent precondition (asserted at
//! `sbgemv_freq_minor` entry); the epilogue checks its two lengths.

use fftmatvec_numeric::Scalar;

#[cfg(target_arch = "x86_64")]
use fftmatvec_numeric::simd::{fma_active, recast, recast_mut, recast_one};

/// Vectorized frequency-minor base case. Fills `acc` — `rows` runs of
/// `acc.len() / rows` frequencies, series-major — with the sequential
/// accumulation of reduction steps `[r0, r1)` over frequencies
/// `[f0, f0 + acc.len() / rows)` of `rows` output series `row_step`
/// apart (operands per series as in `kernels::freq_run`). Returns `false`
/// if no vector kernel applies.
#[allow(unused_variables)]
pub(crate) fn freq_tile<S: Scalar>(
    conj: bool,
    a: &[S],
    a_step: usize,
    row_step: usize,
    rows: usize,
    x: &[S],
    nfreq: usize,
    f0: usize,
    r0: usize,
    r1: usize,
    acc: &mut [S],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if fma_active() {
        use fftmatvec_numeric::Complex;

        macro_rules! try_tile {
            ($(($u:ty, $kernel:path)),+ $(,)?) => {$(
                if let (Some(a), Some(x), Some(acc)) =
                    (recast::<S, $u>(a), recast::<S, $u>(x), recast_mut::<S, $u>(acc))
                {
                    // SAFETY: avx2+fma verified (`fma_active`); frequencies
                    // `[f0, f0 + acc.len() / rows)` of reduction steps
                    // `[r0, r1)` of the `rows` series lie inside `a` and
                    // `x` by `FreqSweep`'s extent precondition.
                    unsafe {
                        $kernel(conj, a, a_step, row_step, rows, x, nfreq, f0, r0, r1, acc)
                    };
                    return true;
                }
            )+};
        }
        try_tile!((Complex<f32>, x86::freq_c32), (Complex<f64>, x86::freq_c64));
    }
    false
}

/// Is there a vector panel kernel ([`freq_panel`]) for `S` at the active
/// level? The panel driver runs only where there is; a column remainder,
/// the 16-bit and real types and the portable level take the one-column
/// sweep per column.
pub(crate) fn has_freq_panel<S: Scalar>() -> bool {
    #[cfg(target_arch = "x86_64")]
    if fma_active() {
        use fftmatvec_numeric::Complex;
        let none: &[S] = &[];
        return recast::<S, Complex<f32>>(none).is_some()
            || recast::<S, Complex<f64>>(none).is_some();
    }
    false
}

/// Where a register panel stores its `PANEL_COLS·rows` runs of `len`
/// frequencies: run `(c, j)` — column `c`, output series `j` — at
/// `out[c·col_ld + j·row_ld..][..len]`. Without `epilogue` a run holds the
/// base run's sums (a tile of `kernels::reduce_tile`); with it the sums
/// have been through the α = 1, β = 0 epilogue (`scale_into`'s operation
/// mix) in the registers, and `out` is the output `y` itself.
pub(crate) struct PanelOut<'a, S> {
    pub out: &'a mut [S],
    pub col_ld: usize,
    pub row_ld: usize,
    pub len: usize,
    pub epilogue: bool,
}

impl<'a, S> PanelOut<'a, S> {
    /// A base run's sums, into a tile of `rows` series per column.
    pub(crate) fn acc(acc: &'a mut [S], rows: usize) -> Self {
        let len = acc.len() / (PANEL_COLS * rows);
        PanelOut { out: acc, col_ld: rows * len, row_ld: len, len, epilogue: false }
    }

    /// The outputs through the epilogue, into `y` whose columns are `y_col`
    /// and whose series `nfreq` apart.
    pub(crate) fn y(y: &'a mut [S], y_col: usize, nfreq: usize, len: usize) -> Self {
        PanelOut { out: y, col_ld: y_col, row_ld: nfreq, len, epilogue: true }
    }
}

/// Vectorized frequency-minor base case of a register panel: [`freq_tile`]
/// for [`PANEL_COLS`] columns at once, column `c`'s reduction operand at
/// `x[c·x_col..]`, stored as `out` says. Returns `false` if no vector
/// kernel applies.
#[allow(unused_variables)]
pub(crate) fn freq_panel<S: Scalar>(
    conj: bool,
    (a, a_step, row_step, rows): (&[S], usize, usize, usize),
    (x, x_col, nfreq): (&[S], usize, usize),
    (f0, r0, r1): (usize, usize, usize),
    out: PanelOut<'_, S>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if fma_active() {
        use fftmatvec_numeric::Complex;

        let PanelOut { out, col_ld, row_ld, len, epilogue } = out;
        assert!(
            (PANEL_COLS - 1) * col_ld + (rows - 1) * row_ld + len <= out.len(),
            "register panel output extents"
        );
        macro_rules! try_panel {
            ($(($u:ty, $kernel:path)),+ $(,)?) => {$(
                if let (Some(a), Some(x), Some(out)) =
                    (recast::<S, $u>(a), recast::<S, $u>(x), recast_mut::<S, $u>(out))
                {
                    let out = (out.as_mut_ptr(), col_ld, row_ld, len);
                    // SAFETY: avx2+fma verified (`fma_active`); frequencies
                    // `[f0, f0 + len)` of reduction steps `[r0, r1)` of the
                    // `rows` series and the `PANEL_COLS` columns lie inside
                    // `a` and `x` by `PanelSweep`'s extent precondition, and
                    // every run stored lies inside `out` (asserted above).
                    unsafe {
                        let geom = ((a, a_step, row_step, rows), (x, x_col, nfreq), (f0, r0, r1));
                        $kernel(conj, geom, out, epilogue)
                    };
                    return true;
                }
            )+};
        }
        try_panel!((Complex<f32>, x86::panel_c32), (Complex<f64>, x86::panel_c64));
    }
    false
}

/// Columns of a register panel: each register of `F̂` is prepared once
/// (`cfma_lhs`) and feeds this many columns' products.
pub(crate) const PANEL_COLS: usize = 4;

/// Output series of a register panel (two prepared `F̂` registers, four
/// columns: 8 accumulators, 4 + 2 operand registers of the 16).
pub(crate) const PANEL_ROWS: usize = 2;

/// Vectorized tile epilogue `y = α·acc + β·y` (`y` write-only when
/// `beta` is `None`), elementwise with the scalar epilogue's operation
/// mix. Returns `false` if no vector kernel applies.
#[allow(unused_variables)]
pub(crate) fn scale_tile<S: Scalar>(alpha: S, acc: &[S], beta: Option<S>, y: &mut [S]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if fma_active() {
        use fftmatvec_numeric::Complex;

        macro_rules! try_tile {
            ($(($u:ty, $kernel:path)),+ $(,)?) => {$(
                if let (Some(alpha), Some(acc), Some(y)) =
                    (recast_one::<S, $u>(alpha), recast::<S, $u>(acc), recast_mut::<S, $u>(y))
                {
                    assert_eq!(acc.len(), y.len(), "epilogue tile length mismatch");
                    // SAFETY: avx2+fma verified (`fma_active`); the
                    // kernel touches `acc` and `y` only below their
                    // common length, checked above (both kernels cut them
                    // from one tile of their extent-checked `y`).
                    unsafe { $kernel(alpha, acc, beta.and_then(recast_one::<S, $u>), y) };
                    return true;
                }
            )+};
        }
        try_tile!((Complex<f32>, x86::scale_c32), (Complex<f64>, x86::scale_c64));
    }
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2+FMA tile kernels, written in the register vocabulary of
    //! `fftmatvec_numeric::simd::x86::{pd, ps}`. Uniform safety contract:
    //! the caller guarantees AVX2+FMA support and — for the sweep —
    //! `FreqSweep`'s extent precondition for the frequency and reduction
    //! ranges passed (see the parent module); accesses are unaligned.
    #![allow(clippy::missing_safety_doc)]

    use fftmatvec_numeric::simd::x86::{pd, ps};
    use fftmatvec_numeric::Complex;

    use super::PANEL_COLS;
    use crate::kernels::scale_run;

    /// Independent accumulator registers of a one-series sweep.
    pub const IN_FLIGHT: usize = 4;

    macro_rules! complex_kernels {
        ($v:ident, $t:ty, $freq_regs:ident, $freq_sweep:ident, $freq:ident, $scale:ident) => {
            /// The frequency-minor registers: `K` registers of `LANES`
            /// consecutive frequencies for each of `RB` output series
            /// (`row_step` apart in `a`), walked through `steps` reduction
            /// steps in order. Lane `f` pairs `a[j][r][f]` with `x[r][f]`
            /// (`lda` resp. `ldx` apart per step), nothing is broadcast;
            /// each step loads the `K` registers of `x` once and applies
            /// them to all `RB` series, every accumulator on its own
            /// chain. `out` holds `RB` runs of `out_ld` outputs. With
            /// `Some(mask)` the (one) register per series is the
            /// frequencies past the last whole one: only its masked lanes
            /// are loaded and stored, each with the chain it would have in
            /// a whole register.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $freq_regs<const RB: usize, const K: usize>(
                sign: $v::V,
                (ap, lda, row_step): (*const $v::C, usize, usize),
                (xp, ldx): (*const $v::C, usize),
                steps: usize,
                (out, out_ld): (*mut $v::C, usize),
                tail: Option<$v::M>,
            ) {
                let mut v = [[$v::splat(0.0); K]; RB];
                for r in 0..steps {
                    let xr = xp.add(r * ldx);
                    let mut xs = [($v::splat(0.0), $v::splat(0.0)); K];
                    for (k, xk) in xs.iter_mut().enumerate() {
                        let x = $v::load_masked(xr.add(k * $v::LANES), tail);
                        *xk = (x, $v::swap(x));
                    }
                    for (j, vj) in v.iter_mut().enumerate() {
                        let aj = ap.add(j * row_step + r * lda);
                        for (k, (vjk, &(x_ri, x_sw))) in vj.iter_mut().zip(&xs).enumerate() {
                            let a = $v::load_masked(aj.add(k * $v::LANES), tail);
                            *vjk = $v::cfma(a, sign, x_ri, x_sw, *vjk);
                        }
                    }
                }
                for (j, vj) in v.iter().enumerate() {
                    for (k, vjk) in vj.iter().enumerate() {
                        $v::store_masked(out.add(j * out_ld + k * $v::LANES), tail, *vjk);
                    }
                }
            }

            /// All registers of one frequency tile of `RB` series: groups
            /// of `K`, then one at a time, then the masked partial
            /// register of the frequencies left over.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $freq_sweep<const RB: usize, const K: usize>(
                sign: $v::V,
                (ap, lda, row_step): (*const $v::C, usize, usize),
                (xp, ldx): (*const $v::C, usize),
                steps: usize,
                acc: &mut [$v::C],
            ) {
                let len = acc.len() / RB;
                let out = acc.as_mut_ptr();
                let mut f = 0;
                while f + K * $v::LANES <= len {
                    let (a, x) = ((ap.add(f), lda, row_step), (xp.add(f), ldx));
                    $freq_regs::<RB, K>(sign, a, x, steps, (out.add(f), len), None);
                    f += K * $v::LANES;
                }
                while f + $v::LANES <= len {
                    let (a, x) = ((ap.add(f), lda, row_step), (xp.add(f), ldx));
                    $freq_regs::<RB, 1>(sign, a, x, steps, (out.add(f), len), None);
                    f += $v::LANES;
                }
                if f < len {
                    let (a, x) = ((ap.add(f), lda, row_step), (xp.add(f), ldx));
                    let mask = Some($v::tail_mask(len - f));
                    $freq_regs::<RB, 1>(sign, a, x, steps, (out.add(f), len), mask);
                }
            }

            /// Frequencies of `rows` frequency-minor output series:
            /// `acc[j·len + i] = Σ_r op(a[j·row_step + r·a_step + f0 + i])
            /// ·x[r·nfreq + f0 + i]` in increasing `r` (`len =
            /// acc.len() / rows`), `op` = conjugation iff `conj` (the sign
            /// of the `a.im` products moves from the real to the imaginary
            /// lanes). One series keeps [`IN_FLIGHT`] registers going on
            /// its own; two to four share each `x` register pair between
            /// them.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $freq(
                conj: bool,
                a: &[Complex<$t>],
                a_step: usize,
                row_step: usize,
                rows: usize,
                x: &[Complex<$t>],
                nfreq: usize,
                f0: usize,
                r0: usize,
                r1: usize,
                acc: &mut [Complex<$t>],
            ) {
                let a = (a.as_ptr().add(r0 * a_step + f0), a_step, row_step);
                let x = (x.as_ptr().add(r0 * nfreq + f0), nfreq);
                let sign = if conj { $v::neg_im() } else { $v::neg_re() };
                let steps = r1 - r0;
                match rows {
                    1 => $freq_sweep::<1, IN_FLIGHT>(sign, a, x, steps, acc),
                    2 => $freq_sweep::<2, 2>(sign, a, x, steps, acc),
                    3 => $freq_sweep::<3, 2>(sign, a, x, steps, acc),
                    4 => $freq_sweep::<4, 2>(sign, a, x, steps, acc),
                    _ => unreachable!("kernels::FREQ_ROWS is at most 4"),
                }
            }

            /// Epilogue `y = alpha.mul_add(acc, beta * y)` with α (and β)
            /// broadcast as `self`. `y` is not read without a β.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $scale(
                alpha: Complex<$t>,
                acc: &[Complex<$t>],
                beta: Option<Complex<$t>>,
                y: &mut [Complex<$t>],
            ) {
                let full = y.len() / $v::LANES * $v::LANES;
                let alpha_ri = $v::bcast(alpha);
                let beta_ri = beta.map(|b| $v::bcast(b));
                let (ap, yp) = (acc.as_ptr(), y.as_mut_ptr());
                for r in (0..full).step_by($v::LANES) {
                    let prior = match beta_ri {
                        None => $v::splat(0.0),
                        Some(b) => {
                            let y = $v::load(yp.add(r));
                            $v::cmul(b, y, $v::swap(y))
                        }
                    };
                    let t = $v::load(ap.add(r));
                    $v::store(yp.add(r), $v::cmuladd(alpha_ri, t, $v::swap(t), prior));
                }
                scale_run(alpha, &acc[full..], beta, &mut y[full..]);
            }
        };
    }

    complex_kernels!(pd, f64, freq_regs_c64, freq_sweep_c64, freq_c64, scale_c64);
    complex_kernels!(ps, f32, freq_regs_c32, freq_sweep_c32, freq_c32, scale_c32);

    /// A register panel's operand geometry: `a` with its step and row
    /// step and the number of output series, `x` with its column step and
    /// reduction step, and the frequency and reduction ranges.
    type Geom<'a, C> =
        ((&'a [C], usize, usize, usize), (&'a [C], usize, usize), (usize, usize, usize));

    macro_rules! panel_kernels {
        ($v:ident, $t:ty, $panel_regs:ident, $panel_sweep:ident, $panel:ident) => {
            /// The panel registers: one register of `LANES` consecutive
            /// frequencies for each of `RB` output series (`row_step`
            /// apart in `a`) and each of `PANEL_COLS` columns (`x_col`
            /// apart in `x`), walked through `steps` reduction steps in
            /// order. Each step loads the `RB` registers of `a` once and
            /// prepares them (`cfma_lhs`), then loads each column's `x`
            /// register once and applies it to all `RB` series: per
            /// accumulator the two FMAs of `cfma`, on its own chain. Run
            /// `(c, j)` is stored at `out + c·col_ld + j·row_ld`, through
            /// the α = 1 epilogue when `EPI`. `tail` masks the
            /// frequencies past the last whole register, as in the
            /// one-column sweep.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $panel_regs<const RB: usize, const EPI: bool>(
                sign: $v::V,
                (ap, lda, row_step): (*const $v::C, usize, usize),
                (xp, ldx, x_col): (*const $v::C, usize, usize),
                steps: usize,
                (out, col_ld, row_ld): (*mut $v::C, usize, usize),
                tail: Option<$v::M>,
            ) {
                let zero = $v::splat(0.0);
                let mut v = [[zero; RB]; PANEL_COLS];
                for r in 0..steps {
                    let mut s = [(zero, zero); RB];
                    for (j, sj) in s.iter_mut().enumerate() {
                        let a = $v::load_masked(ap.add(j * row_step + r * lda), tail);
                        *sj = $v::cfma_lhs(a, sign);
                    }
                    for (c, vc) in v.iter_mut().enumerate() {
                        let x = $v::load_masked(xp.add(c * x_col + r * ldx), tail);
                        let x_sw = $v::swap(x);
                        for (vcj, &sj) in vc.iter_mut().zip(&s) {
                            *vcj = $v::cfma_with(sj, x, x_sw, *vcj);
                        }
                    }
                }
                let one = $v::bcast(Complex::new(1.0, 0.0));
                for (c, vc) in v.iter().enumerate() {
                    for (j, &vcj) in vc.iter().enumerate() {
                        let y = if EPI { $v::cmuladd(one, vcj, $v::swap(vcj), zero) } else { vcj };
                        $v::store_masked(out.add(c * col_ld + j * row_ld), tail, y);
                    }
                }
            }

            /// All registers of one frequency tile of a panel: whole ones,
            /// then the masked partial register of the frequencies left.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $panel_sweep<const RB: usize, const EPI: bool>(
                sign: $v::V,
                (ap, lda, row_step): (*const $v::C, usize, usize),
                (xp, ldx, x_col): (*const $v::C, usize, usize),
                steps: usize,
                (out, col_ld, row_ld, len): (*mut $v::C, usize, usize, usize),
            ) {
                let mut f = 0;
                while f < len {
                    let tail = (f + $v::LANES > len).then(|| $v::tail_mask(len - f));
                    let (a, x) = ((ap.add(f), lda, row_step), (xp.add(f), ldx, x_col));
                    let out = (out.add(f), col_ld, row_ld);
                    $panel_regs::<RB, EPI>(sign, a, x, steps, out, tail);
                    f += $v::LANES;
                }
            }

            /// Frequencies of `rows` frequency-minor output series of
            /// `PANEL_COLS` columns: run `(c, j)` of `out` holds, for
            /// `i < len`, `Σ_r op(a[j·row_step + r·a_step + f0 + i])
            /// ·x[c·x_col + r·nfreq + f0 + i]` in increasing `r` — per
            /// output the chain of the one-column sweep — or, with
            /// `epilogue`, that sum through the α = 1 epilogue.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $panel(
                conj: bool,
                ((a, a_step, row_step, rows), (x, x_col, nfreq), (f0, r0, r1)): Geom<
                    '_,
                    Complex<$t>,
                >,
                out: (*mut Complex<$t>, usize, usize, usize),
                epilogue: bool,
            ) {
                let a = (a.as_ptr().add(r0 * a_step + f0), a_step, row_step);
                let x = (x.as_ptr().add(r0 * nfreq + f0), nfreq, x_col);
                let sign = if conj { $v::neg_im() } else { $v::neg_re() };
                let steps = r1 - r0;
                match (rows, epilogue) {
                    (1, false) => $panel_sweep::<1, false>(sign, a, x, steps, out),
                    (2, false) => $panel_sweep::<2, false>(sign, a, x, steps, out),
                    (1, true) => $panel_sweep::<1, true>(sign, a, x, steps, out),
                    (2, true) => $panel_sweep::<2, true>(sign, a, x, steps, out),
                    _ => unreachable!("PANEL_ROWS is 2"),
                }
            }
        };
    }

    panel_kernels!(pd, f64, panel_regs_c64, panel_sweep_c64, panel_c64);
    panel_kernels!(ps, f32, panel_regs_c32, panel_sweep_c32, panel_c32);
}
