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
use self::dispatch::{cast, cast_mut, cast_one};
#[cfg(target_arch = "x86_64")]
use fftmatvec_numeric::simd::fma_active;

#[cfg(target_arch = "x86_64")]
mod dispatch {
    use core::any::TypeId;

    pub fn cast<S: 'static, U: 'static>(v: &[S]) -> Option<&[U]> {
        (TypeId::of::<S>() == TypeId::of::<U>()).then(|| {
            // SAFETY: S == U was just checked; identity cast.
            unsafe { core::slice::from_raw_parts(v.as_ptr() as *const U, v.len()) }
        })
    }

    pub fn cast_one<S: Copy + 'static, U: Copy + 'static>(v: S) -> Option<U> {
        cast::<S, U>(core::slice::from_ref(&v)).map(|s| s[0])
    }

    pub fn cast_mut<S: 'static, U: 'static>(v: &mut [S]) -> Option<&mut [U]> {
        (TypeId::of::<S>() == TypeId::of::<U>()).then(|| {
            // SAFETY: as above; the exclusive borrow transfers.
            unsafe { core::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut U, v.len()) }
        })
    }
}

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
                    (cast::<S, $u>(a), cast::<S, $u>(x), cast_mut::<S, $u>(acc))
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
                    (cast_one::<S, $u>(alpha), cast::<S, $u>(acc), cast_mut::<S, $u>(y))
                {
                    assert_eq!(acc.len(), y.len(), "epilogue tile length mismatch");
                    // SAFETY: avx2+fma verified (`fma_active`); the
                    // kernel touches `acc` and `y` only below their
                    // common length, checked above (both kernels cut them
                    // from one tile of their extent-checked `y`).
                    unsafe { $kernel(alpha, acc, beta.and_then(cast_one::<S, $u>), y) };
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
    //! AVX2+FMA tile kernels. Uniform safety contract: the caller
    //! guarantees AVX2+FMA support and — for the sweep — `FreqSweep`'s
    //! extent precondition for the frequency and reduction ranges passed
    //! (see the parent module); accesses are unaligned.
    #![allow(clippy::missing_safety_doc)]

    use core::arch::x86_64::*;

    use fftmatvec_numeric::Complex;

    use crate::kernels::scale_run;

    /// Independent accumulator registers of a one-series sweep.
    pub const IN_FLIGHT: usize = 4;

    /// The per-register primitives of the `Complex<f64>` kernels: a
    /// `__m256d` holds 2 interleaved complex values.
    mod pd {
        use super::*;

        pub type V = __m256d;
        /// Lane mask of a partial register.
        pub type M = __m256i;
        /// Complex values per register.
        pub const LANES: usize = 2;

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn zero() -> V {
            _mm256_setzero_pd()
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn loadu(p: *const f64) -> V {
            _mm256_loadu_pd(p)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn storeu(p: *mut f64, v: V) {
            _mm256_storeu_pd(p, v)
        }

        /// Lane mask of the first `rem < LANES` complex values of a
        /// register, for [`load`] / [`maskstore`].
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn tail_mask(rem: usize) -> M {
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(2 * rem as i64), _mm256_setr_epi64x(0, 1, 2, 3))
        }

        /// A whole register, or with `Some(mask)` its masked lanes with the
        /// rest zeroed; memory behind a masked-off lane is not accessed
        /// (and cannot fault).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn load(p: *const f64, tail: Option<M>) -> V {
            match tail {
                None => loadu(p),
                Some(mask) => _mm256_maskload_pd(p, mask),
            }
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn maskstore(p: *mut f64, mask: M, v: V) {
            _mm256_maskstore_pd(p, mask, v)
        }

        /// One complex value as `[re, im]` pairs.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn splat(x: Complex<f64>) -> V {
            _mm256_setr_pd(x.re, x.im, x.re, x.im)
        }

        /// Swap the halves of each `(re, im)` pair.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn swap(v: V) -> V {
            _mm256_permute_pd::<0b0101>(v)
        }

        /// Sign of the `s.im` products of `s.mul_add(x, p)` per lane:
        /// negative in the real lanes — or, for `s = conj(a)` given `a`,
        /// in the imaginary lanes. Also the sign of `Complex::mul`'s
        /// unfused product (`conj = false`).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn sign(conj: bool) -> V {
            if conj {
                _mm256_setr_pd(0.0, -0.0, 0.0, -0.0)
            } else {
                _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0)
            }
        }

        /// `s·x + p` with `s = a` or `conj(a)` by `sign` — the operation
        /// mix of `Complex::mul_add` (`numeric::simd::x86::cmuladd_pd`,
        /// inlined, conjugation folded into the mask):
        /// `re = fma(s.re, x.re, fma(-s.im, x.im, p.re))`,
        /// `im = fma(s.re, x.im, fma( s.im, x.re, p.im))`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn cfma(a: V, sign: V, x_ri: V, x_sw: V, p: V) -> V {
            let a_im = _mm256_xor_pd(_mm256_permute_pd::<0b1111>(a), sign);
            _mm256_fmadd_pd(_mm256_movedup_pd(a), x_ri, _mm256_fmadd_pd(a_im, x_sw, p))
        }

        /// `b·y`, the operation mix of `Complex::mul`:
        /// `re = fma(b.re, y.re, -(b.im·y.im))`,
        /// `im = fma(b.re, y.im,   b.im·y.re)`; `sign = sign(false)`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn cmul(b: V, sign: V, y: V) -> V {
            let inner = _mm256_xor_pd(_mm256_mul_pd(_mm256_permute_pd::<0b1111>(b), swap(y)), sign);
            _mm256_fmadd_pd(_mm256_movedup_pd(b), y, inner)
        }
    }

    /// The `Complex<f32>` primitives: a `__m256` holds 4 interleaved
    /// complex values. Same operations as [`pd`].
    mod ps {
        use super::*;

        pub type V = __m256;
        pub type M = __m256i;
        pub const LANES: usize = 4;

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn zero() -> V {
            _mm256_setzero_ps()
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn loadu(p: *const f32) -> V {
            _mm256_loadu_ps(p)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn storeu(p: *mut f32, v: V) {
            _mm256_storeu_ps(p, v)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn tail_mask(rem: usize) -> M {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_cmpgt_epi32(_mm256_set1_epi32(2 * rem as i32), lane)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn load(p: *const f32, tail: Option<M>) -> V {
            match tail {
                None => loadu(p),
                Some(mask) => _mm256_maskload_ps(p, mask),
            }
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn maskstore(p: *mut f32, mask: M, v: V) {
            _mm256_maskstore_ps(p, mask, v)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn splat(x: Complex<f32>) -> V {
            _mm256_setr_ps(x.re, x.im, x.re, x.im, x.re, x.im, x.re, x.im)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn swap(v: V) -> V {
            _mm256_permute_ps::<0b10_11_00_01>(v)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn sign(conj: bool) -> V {
            if conj {
                _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0)
            } else {
                _mm256_setr_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0)
            }
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn cfma(a: V, sign: V, x_ri: V, x_sw: V, p: V) -> V {
            let a_im = _mm256_xor_ps(_mm256_movehdup_ps(a), sign);
            _mm256_fmadd_ps(_mm256_moveldup_ps(a), x_ri, _mm256_fmadd_ps(a_im, x_sw, p))
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn cmul(b: V, sign: V, y: V) -> V {
            let inner = _mm256_xor_ps(_mm256_mul_ps(_mm256_movehdup_ps(b), swap(y)), sign);
            _mm256_fmadd_ps(_mm256_moveldup_ps(b), y, inner)
        }
    }

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
                (ap, lda, row_step): (*const $t, usize, usize),
                (xp, ldx): (*const $t, usize),
                steps: usize,
                (out, out_ld): (*mut $t, usize),
                tail: Option<$v::M>,
            ) {
                let mut v = [[$v::zero(); K]; RB];
                for r in 0..steps {
                    let xr = xp.add(2 * r * ldx);
                    let mut xs = [($v::zero(), $v::zero()); K];
                    for (k, xk) in xs.iter_mut().enumerate() {
                        let x = $v::load(xr.add(2 * k * $v::LANES), tail);
                        *xk = (x, $v::swap(x));
                    }
                    for (j, vj) in v.iter_mut().enumerate() {
                        let aj = ap.add(2 * (j * row_step + r * lda));
                        for (k, (vjk, &(x_ri, x_sw))) in vj.iter_mut().zip(&xs).enumerate() {
                            let a = $v::load(aj.add(2 * k * $v::LANES), tail);
                            *vjk = $v::cfma(a, sign, x_ri, x_sw, *vjk);
                        }
                    }
                }
                for (j, vj) in v.iter().enumerate() {
                    for (k, vjk) in vj.iter().enumerate() {
                        let o = out.add(2 * (j * out_ld + k * $v::LANES));
                        match tail {
                            None => $v::storeu(o, *vjk),
                            Some(mask) => $v::maskstore(o, mask, *vjk),
                        }
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
                (ap, lda, row_step): (*const $t, usize, usize),
                (xp, ldx): (*const $t, usize),
                steps: usize,
                acc: &mut [Complex<$t>],
            ) {
                let len = acc.len() / RB;
                let out = acc.as_mut_ptr() as *mut $t;
                let mut f = 0;
                while f + K * $v::LANES <= len {
                    let (a, x) = ((ap.add(2 * f), lda, row_step), (xp.add(2 * f), ldx));
                    $freq_regs::<RB, K>(sign, a, x, steps, (out.add(2 * f), len), None);
                    f += K * $v::LANES;
                }
                while f + $v::LANES <= len {
                    let (a, x) = ((ap.add(2 * f), lda, row_step), (xp.add(2 * f), ldx));
                    $freq_regs::<RB, 1>(sign, a, x, steps, (out.add(2 * f), len), None);
                    f += $v::LANES;
                }
                if f < len {
                    let (a, x) = ((ap.add(2 * f), lda, row_step), (xp.add(2 * f), ldx));
                    let mask = Some($v::tail_mask(len - f));
                    $freq_regs::<RB, 1>(sign, a, x, steps, (out.add(2 * f), len), mask);
                }
            }

            /// Frequencies of `rows` frequency-minor output series:
            /// `acc[j·len + i] = Σ_r op(a[j·row_step + r·a_step + f0 + i])
            /// ·x[r·nfreq + f0 + i]` in increasing `r` (`len =
            /// acc.len() / rows`), `op` = conjugation iff `conj`. One
            /// series keeps [`IN_FLIGHT`] registers going on its own; two
            /// to four share each `x` register pair between them.
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
                let a = (a.as_ptr().add(r0 * a_step + f0) as *const $t, a_step, row_step);
                let x = (x.as_ptr().add(r0 * nfreq + f0) as *const $t, nfreq);
                let (sign, steps) = ($v::sign(conj), r1 - r0);
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
                let sign = $v::sign(false);
                let alpha_ri = $v::splat(alpha);
                let beta_ri = beta.map(|b| $v::splat(b));
                let (ap, yp) = (acc.as_ptr() as *const $t, y.as_mut_ptr() as *mut $t);
                for r in (0..full).step_by($v::LANES) {
                    let prior = match beta_ri {
                        None => $v::zero(),
                        Some(b) => $v::cmul(b, sign, $v::loadu(yp.add(2 * r))),
                    };
                    let t = $v::loadu(ap.add(2 * r));
                    $v::storeu(yp.add(2 * r), $v::cfma(alpha_ri, sign, t, $v::swap(t), prior));
                }
                scale_run(alpha, &acc[full..], beta, &mut y[full..]);
            }
        };
    }

    complex_kernels!(pd, f64, freq_regs_c64, freq_sweep_c64, freq_c64, scale_c64);
    complex_kernels!(ps, f32, freq_regs_c32, freq_sweep_c32, freq_c32, scale_c32);
}
