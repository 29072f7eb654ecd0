//! The vector kernel of the SBGEMV the pipeline runs, and its epilogue.
//!
//! [`freq_panel`] offers one base run of the frequency-minor tile
//! recursion (`crate::kernels`) to the vector kernel, [`scale_tile`] the
//! tile's α/β epilogue; `false` means the caller must run its scalar
//! loop. Figure 1's block kernel (`crate::sbgemv`) has no vector tile: it
//! is the scalar reference, run through `fma_pass!` bodies
//! (`kernels::{notrans_pass, trans_pass}`), and only its epilogue comes
//! here.
//!
//! **Lanes run across outputs, never along the reduction.** A register
//! holds the accumulators of consecutive *frequencies* of one output
//! series of one column and walks the reduction run sequentially, so every
//! output sees the *same accumulation chain* as in the scalar code and
//! results are bit-identical at every dispatch level. Splitting a lane
//! along the reduction would reassociate the sum; nothing here does. The
//! pairwise merge above the base case stays scalar: it is elementwise and
//! cheap, and the tree shape must not change.
//!
//! **One register body, a plan per column count.** The kernel (`regs_*` in
//! [`x86`]) is a register panel of `RB` output series by `CB` columns by
//! `K` registers of frequencies: per reduction step each register of `a`
//! is loaded once and split (`cfma_lhs`: the `movedup`, `permute` and sign
//! `xor` of a complex product), and each column's `x` register is loaded
//! and swapped once, so one prepared register of `a` feeds `CB` products
//! (`cfma_with`) and one `x` register `RB`. The driver picks the plan from
//! the columns left: four columns run two series of one register each, so
//! the shuffles of one `cfma` are shared by eight products and the FMA
//! ports, not the shuffle port, set the pace; one column — every solo
//! apply — runs up to four series of two registers each, or one series of
//! four, so that enough independent chains (a chain is two dependent FMAs
//! per step) keep the FMA ports busy. Only the complex `f32` / `f64` types
//! have a vector kernel; the others take the scalar FMA-context pass.
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
//! relies on `kernels::PanelSweep`'s extent precondition (asserted at
//! `sbgemv_freq_minor_many` entry); the stores and the epilogue check
//! their lengths.

use fftmatvec_numeric::Scalar;

#[cfg(target_arch = "x86_64")]
use fftmatvec_numeric::simd::{fma_active, recast, recast_mut, recast_one};

/// Where a register panel stores its `cols·rows` runs of `len`
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
    /// A base run's sums, into a tile of `cols` columns of `rows` series.
    pub(crate) fn acc(acc: &'a mut [S], cols: usize, rows: usize) -> Self {
        let len = acc.len() / (cols * rows);
        PanelOut { out: acc, col_ld: rows * len, row_ld: len, len, epilogue: false }
    }

    /// The outputs through the epilogue, into `y` whose columns are `y_col`
    /// and whose series `nfreq` apart.
    pub(crate) fn y(y: &'a mut [S], y_col: usize, nfreq: usize, len: usize) -> Self {
        PanelOut { out: y, col_ld: y_col, row_ld: nfreq, len, epilogue: true }
    }
}

/// Vectorized frequency-minor base case of a register panel: the
/// sequential accumulation of reduction steps `[r0, r1)` over frequencies
/// `[f0, f0 + out.len)` of `rows` output series `row_step` apart and of
/// `cols` columns, column `c`'s reduction operand at `x[c·x_col..]`
/// (operands per run as in `kernels::freq_run`), stored as `out` says.
/// Returns `false` if no vector kernel applies.
#[allow(unused_variables)]
pub(crate) fn freq_panel<S: Scalar>(
    conj: bool,
    (a, a_step, row_step, rows): (&[S], usize, usize, usize),
    (x, x_col, cols, nfreq): (&[S], usize, usize, usize),
    (f0, r0, r1): (usize, usize, usize),
    out: &mut PanelOut<'_, S>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if fma_active() {
        use fftmatvec_numeric::Complex;

        let PanelOut { out: ref mut runs, col_ld, row_ld, len, epilogue } = *out;
        assert!(
            (cols - 1) * col_ld + (rows - 1) * row_ld + len <= runs.len(),
            "register panel output extents"
        );
        macro_rules! try_panel {
            ($(($u:ty, $kernel:path)),+ $(,)?) => {$(
                if let (Some(a), Some(x), Some(runs)) =
                    (recast::<S, $u>(a), recast::<S, $u>(x), recast_mut::<S, $u>(runs))
                {
                    let out = (runs.as_mut_ptr(), col_ld, row_ld, len);
                    // SAFETY: avx2+fma verified (`fma_active`); frequencies
                    // `[f0, f0 + len)` of reduction steps `[r0, r1)` of the
                    // `rows` series and the `cols` columns lie inside `a`
                    // and `x` by `PanelSweep`'s extent precondition, and
                    // every run stored lies inside `out` (asserted above).
                    unsafe {
                        let geom = ((a, a_step, row_step, rows), (x, x_col, cols, nfreq), (f0, r0, r1));
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
    //! `PanelSweep`'s extent precondition for the frequency and reduction
    //! ranges passed (see the parent module); accesses are unaligned.
    #![allow(clippy::missing_safety_doc)]

    use fftmatvec_numeric::simd::x86::{pd, ps};
    use fftmatvec_numeric::Complex;

    use crate::kernels::scale_run;

    /// A register panel's operand geometry: `a` with its step and row
    /// step and the number of output series, `x` with its column step, the
    /// number of columns and its reduction step, and the frequency and
    /// reduction ranges.
    type Geom<'a, C> =
        ((&'a [C], usize, usize, usize), (&'a [C], usize, usize, usize), (usize, usize, usize));

    macro_rules! complex_kernels {
        ($v:ident, $t:ty, $regs:ident, $sweep:ident, $panel:ident, $scale:ident) => {
            /// The panel registers: `K` registers of `LANES` consecutive
            /// frequencies for each of `RB` output series (`row_step`
            /// apart in `a`) and each of `CB` columns (`x_col` apart in
            /// `x`), walked through `steps` reduction steps in order. Lane
            /// `f` pairs `a[j][r][f]` with `x[c][r][f]` (`lda` resp. `ldx`
            /// apart per step), nothing is broadcast. Each step loads the
            /// `RB·K` registers of `a` once and prepares them
            /// (`cfma_lhs`), then loads each column's `K` registers of `x`
            /// once and applies them to all `RB` series: per accumulator
            /// the two FMAs of `cfma`, on its own chain. Run `(c, j)` is
            /// stored at `out + c·col_ld + j·row_ld`, through the α = 1
            /// epilogue when `EPI`. With `Some(mask)` the (one) register
            /// per run is the frequencies past the last whole one: only its
            /// masked lanes are loaded and stored, each with the chain it
            /// would have in a whole register.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $regs<const RB: usize, const CB: usize, const K: usize, const EPI: bool>(
                sign: $v::V,
                (ap, lda, row_step): (*const $v::C, usize, usize),
                (xp, ldx, x_col): (*const $v::C, usize, usize),
                steps: usize,
                (out, col_ld, row_ld): (*mut $v::C, usize, usize),
                tail: Option<$v::M>,
            ) {
                let zero = $v::splat(0.0);
                let mut v = [[[zero; K]; RB]; CB];
                for r in 0..steps {
                    let mut s = [[(zero, zero); K]; RB];
                    for (j, sj) in s.iter_mut().enumerate() {
                        let aj = ap.add(j * row_step + r * lda);
                        for (k, sjk) in sj.iter_mut().enumerate() {
                            let a = $v::load_masked(aj.add(k * $v::LANES), tail);
                            *sjk = $v::cfma_lhs(a, sign);
                        }
                    }
                    for (c, vc) in v.iter_mut().enumerate() {
                        let xc = xp.add(c * x_col + r * ldx);
                        for k in 0..K {
                            let x = $v::load_masked(xc.add(k * $v::LANES), tail);
                            let x_sw = $v::swap(x);
                            for (vcj, sj) in vc.iter_mut().zip(&s) {
                                vcj[k] = $v::cfma_with(sj[k], x, x_sw, vcj[k]);
                            }
                        }
                    }
                }
                let one = $v::bcast(Complex::new(1.0, 0.0));
                for (c, vc) in v.iter().enumerate() {
                    for (j, vcj) in vc.iter().enumerate() {
                        let oj = out.add(c * col_ld + j * row_ld);
                        for (k, &w) in vcj.iter().enumerate() {
                            let y = if EPI { $v::cmuladd(one, w, $v::swap(w), zero) } else { w };
                            $v::store_masked(oj.add(k * $v::LANES), tail, y);
                        }
                    }
                }
            }

            /// All registers of one frequency tile of a panel: groups of
            /// `K`, then one at a time, then the masked partial register of
            /// the frequencies left over.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $sweep<const RB: usize, const CB: usize, const K: usize, const EPI: bool>(
                sign: $v::V,
                (ap, lda, row_step): (*const $v::C, usize, usize),
                (xp, ldx, x_col): (*const $v::C, usize, usize),
                steps: usize,
                (out, col_ld, row_ld, len): (*mut $v::C, usize, usize, usize),
            ) {
                let at = |f: usize| {
                    (
                        (ap.add(f), lda, row_step),
                        (xp.add(f), ldx, x_col),
                        (out.add(f), col_ld, row_ld),
                    )
                };
                let mut f = 0;
                while f + K * $v::LANES <= len {
                    let (a, x, out) = at(f);
                    $regs::<RB, CB, K, EPI>(sign, a, x, steps, out, None);
                    f += K * $v::LANES;
                }
                while f + $v::LANES <= len {
                    let (a, x, out) = at(f);
                    $regs::<RB, CB, 1, EPI>(sign, a, x, steps, out, None);
                    f += $v::LANES;
                }
                if f < len {
                    let (a, x, out) = at(f);
                    $regs::<RB, CB, 1, EPI>(sign, a, x, steps, out, Some($v::tail_mask(len - f)));
                }
            }

            /// Frequencies of `rows` frequency-minor output series of
            /// `cols` columns: run `(c, j)` of `out` holds, for `i < len`,
            /// `Σ_r op(a[j·row_step + r·a_step + f0 + i])·x[c·x_col +
            /// r·nfreq + f0 + i]` in increasing `r`, `op` = conjugation iff
            /// `conj` (the sign of the `a.im` products moves from the real
            /// to the imaginary lanes) — or, with `epilogue`, that sum
            /// through the α = 1 epilogue. The plan `(RB, CB, K)`: a panel
            /// of four columns runs one register per series; one column
            /// runs two per series, and a lone series four.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $panel(
                conj: bool,
                ((a, a_step, row_step, rows), (x, x_col, cols, nfreq), (f0, r0, r1)): Geom<
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
                match (cols, rows, epilogue) {
                    (1, 1, false) => $sweep::<1, 1, 4, false>(sign, a, x, steps, out),
                    (1, 1, true) => $sweep::<1, 1, 4, true>(sign, a, x, steps, out),
                    (1, 2, false) => $sweep::<2, 1, 2, false>(sign, a, x, steps, out),
                    (1, 2, true) => $sweep::<2, 1, 2, true>(sign, a, x, steps, out),
                    (1, 3, false) => $sweep::<3, 1, 2, false>(sign, a, x, steps, out),
                    (1, 3, true) => $sweep::<3, 1, 2, true>(sign, a, x, steps, out),
                    (1, 4, false) => $sweep::<4, 1, 2, false>(sign, a, x, steps, out),
                    (1, 4, true) => $sweep::<4, 1, 2, true>(sign, a, x, steps, out),
                    (4, 1, false) => $sweep::<1, 4, 1, false>(sign, a, x, steps, out),
                    (4, 1, true) => $sweep::<1, 4, 1, true>(sign, a, x, steps, out),
                    (4, 2, false) => $sweep::<2, 4, 1, false>(sign, a, x, steps, out),
                    (4, 2, true) => $sweep::<2, 4, 1, true>(sign, a, x, steps, out),
                    _ => unreachable!("kernels::panel_plan has no {cols}x{rows} panel"),
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

    complex_kernels!(pd, f64, regs_c64, sweep_c64, panel_c64, scale_c64);
    complex_kernels!(ps, f32, regs_c32, sweep_c32, panel_c32, scale_c32);
}
