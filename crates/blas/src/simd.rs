//! Vectorized base cases and epilogue of the tiled SBGEMV sweeps.
//!
//! [`notrans_tile`], [`trans_tile`] and [`freq_tile`] offer one base run
//! of the tile recursion (`crate::kernels`) to a vector kernel,
//! [`scale_tile`] the tile's α/β epilogue; `false` means the caller must
//! run its scalar loop.
//!
//! **Lanes run across outputs, never along the reduction.** A register
//! holds the accumulators of neighbouring outputs — rows for
//! non-transpose, *columns* for (conjugate-)transpose, consecutive
//! *frequencies* of one output series for the frequency-minor layout —
//! and walks the reduction run sequentially, so every output sees the
//! *same accumulation chain* as in the scalar code and results are
//! bit-identical at every dispatch level. Splitting a lane along the
//! reduction would reassociate the sum; nothing here does. The pairwise
//! merge above the base case stays scalar: it is elementwise and cheap,
//! and the tree shape must not change. The two complex block sweeps are
//! one register kernel (`regs_*` / `sweep_*` in [`x86`]) with the
//! addressing as a const parameter, both broadcasting `x[r]`. The
//! frequency-minor sweep (`freq_regs_*` / `freq_sweep_*`) loads the
//! reduction operand lane-wise like the matrix entry (lane `f` pairs
//! `a[r][f]` with `x[r][f]`), so it reuses each `x` register across up to
//! four output series instead, as the block sweeps reuse a broadcast
//! across a tile of rows.
//!
//! The complex f32/f64 kernels keep [`x86::IN_FLIGHT`] independent
//! accumulator registers going: one register's chain is two dependent
//! FMAs per step, which alone leaves the FMA ports idle most cycles.
//! Real and 16-bit transposes take the scalar tile.
//!
//! **Outputs past the last whole register.** The complex forward and
//! frequency-minor tiles finish with one *masked* register (`maskload` /
//! `maskstore` of the rows resp. frequencies left over — `N_t + 1`
//! frequencies always leave some), so `k·LANES + r` rows cost what
//! `(k+1)·LANES` rows do: a 3×256×65 `Complex<f32>` sweep takes 47 µs
//! beside 44 µs for 4×256×65, a single `Complex<f64>` sensor (1×256×65)
//! 48 µs beside 50 µs for two. Everything else left over — rows of the real and 16-bit
//! tiles, *columns* of a transposed complex tile (a partial gather is not
//! written), the epilogue's last elements — runs the scalar loops of
//! `crate::kernels`, which are `#[inline(always)]` and therefore compiled
//! *here*, inside the tile's `avx2,fma` context, where a `mul_add` is one
//! `vfmadd`. Compiled on their own (as they were) every `mul_add` is a
//! call into libm `fma`, and one remainder row cost 4–9× a whole register
//! of rows (3×256×65 `Complex<f32>`: 650 µs).
//!
//! 16-bit tiers round through storage after every fused multiply-add
//! (inner product and outer FMA for the complex types), exactly where
//! the emulated scalar arithmetic rounds.
//!
//! **Safety.** Every kernel in [`x86`] reads `a` through raw pointers.
//! The frequency-minor tile relies on `kernels::FreqSweep`'s extent
//! precondition (asserted at `sbgemv_freq_minor` entry); all others rely
//! on one precondition, asserted at `kernels::gemv` entry (the *extent
//! precondition*): `lda ≥ m`,
//! `a.len() ≥ (n−1)·lda + m`, `x`/`y` at least `op`'s input/output
//! length — so `a[j·lda + i]` is in bounds for all `i < m`, `j < n` —
//! together with the tile arguments `gemv`'s recursion derives from it
//! (output range `[o0, o0 + acc.len())` and reduction range `[r0, r1)`
//! inside the matrix).

use fftmatvec_numeric::Scalar;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use self::dispatch::{cast, cast_mut, cast_one};
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use fftmatvec_numeric::simd::fma_active;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
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

/// Vectorized non-transpose base case. Fills `acc` with the sequential
/// accumulation of columns `[j0, j1)` over rows `[i0, i0 + acc.len())`.
/// Returns `false` if no vector kernel applies.
#[allow(unused_variables)]
pub(crate) fn notrans_tile<S: Scalar>(
    a: &[S],
    lda: usize,
    x: &[S],
    i0: usize,
    j0: usize,
    j1: usize,
    acc: &mut [S],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if fma_active() {
        use fftmatvec_numeric::half::{bf16, f16};
        use fftmatvec_numeric::Complex;

        macro_rules! try_tile {
            ($(($u:ty, $kernel:path)),+ $(,)?) => {$(
                if let (Some(a), Some(x), Some(acc)) =
                    (cast::<S, $u>(a), cast::<S, $u>(x), cast_mut::<S, $u>(acc))
                {
                    // SAFETY: avx2+fma verified (`fma_active`); rows
                    // `[i0, i0 + acc.len())` and columns `[j0, j1)` lie
                    // inside the matrix by gemv's extent precondition.
                    unsafe { $kernel(a, lda, x, i0, j0, j1, acc) };
                    return true;
                }
            )+};
        }
        try_tile!(
            (f32, x86::tile_f32),
            (f64, x86::tile_f64),
            (f16, x86::tile_f16),
            (bf16, x86::tile_bf16),
            (Complex<f32>, x86::tile_c32),
            (Complex<f64>, x86::tile_c64),
            (Complex<f16>, x86::tile_c16),
            (Complex<bf16>, x86::tile_cb16),
        );
    }
    false
}

/// Vectorized (conjugate-)transpose base case. Fills `acc` with the
/// sequential accumulation of rows `[i0, i1)` over columns
/// `[j0, j0 + acc.len())`. Returns `false` if no vector kernel applies.
#[allow(unused_variables)]
pub(crate) fn trans_tile<S: Scalar>(
    conj: bool,
    a: &[S],
    lda: usize,
    x: &[S],
    j0: usize,
    i0: usize,
    i1: usize,
    acc: &mut [S],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if fma_active() {
        use fftmatvec_numeric::Complex;

        macro_rules! try_tile {
            ($(($u:ty, $kernel:path)),+ $(,)?) => {$(
                if let (Some(a), Some(x), Some(acc)) =
                    (cast::<S, $u>(a), cast::<S, $u>(x), cast_mut::<S, $u>(acc))
                {
                    // SAFETY: avx2+fma verified (`fma_active`); columns
                    // `[j0, j0 + acc.len())` and rows `[i0, i1)` lie
                    // inside the matrix by gemv's extent precondition.
                    unsafe { $kernel(conj, a, lda, x, j0, i0, i1, acc) };
                    return true;
                }
            )+};
        }
        try_tile!((Complex<f32>, x86::trans_c32), (Complex<f64>, x86::trans_c64));
    }
    false
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
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
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
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
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
                    // common length, checked above (gemv cuts both from
                    // one tile of its extent-checked `y`).
                    unsafe { $kernel(alpha, acc, beta.and_then(cast_one::<S, $u>), y) };
                    return true;
                }
            )+};
        }
        try_tile!((Complex<f32>, x86::scale_c32), (Complex<f64>, x86::scale_c64));
    }
    false
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    //! AVX2+FMA tile kernels. Uniform safety contract: the caller
    //! guarantees AVX2+FMA support and — for the sweep tiles — gemv's
    //! extent precondition on `a`/`lda` for the output and reduction
    //! ranges passed (see the parent module); accesses are unaligned.
    #![allow(clippy::missing_safety_doc)]

    use core::arch::x86_64::*;

    use fftmatvec_numeric::half::{bf16, f16};
    use fftmatvec_numeric::simd::x86::{
        dup_im_ps, dup_re_ps, narrow8_bf16, narrow8_f16, neg_even_ps, round8_bf16, round8_f16,
        widen8_bf16, widen8_f16,
    };
    use fftmatvec_numeric::Complex;

    use crate::kernels::{notrans_run, scale_run, trans_run};

    /// f32 rows, 8 per register: `acc[p] = fma(a[p][j], x[j], acc[p])`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_f32(
        a: &[f32],
        lda: usize,
        x: &[f32],
        i0: usize,
        j0: usize,
        j1: usize,
        acc: &mut [f32],
    ) {
        let full = acc.len() / 8 * 8;
        let ap = a.as_ptr();
        let mut r = 0;
        while r < full {
            let mut v = _mm256_setzero_ps();
            for j in j0..j1 {
                let col = _mm256_loadu_ps(ap.add(j * lda + i0 + r));
                v = _mm256_fmadd_ps(col, _mm256_set1_ps(x[j]), v);
            }
            _mm256_storeu_ps(acc.as_mut_ptr().add(r), v);
            r += 8;
        }
        notrans_run(a, lda, x, i0 + full, j0, j1, &mut acc[full..]);
    }

    /// f64 rows, 4 per register.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_f64(
        a: &[f64],
        lda: usize,
        x: &[f64],
        i0: usize,
        j0: usize,
        j1: usize,
        acc: &mut [f64],
    ) {
        let full = acc.len() / 4 * 4;
        let ap = a.as_ptr();
        let mut r = 0;
        while r < full {
            let mut v = _mm256_setzero_pd();
            for j in j0..j1 {
                let col = _mm256_loadu_pd(ap.add(j * lda + i0 + r));
                v = _mm256_fmadd_pd(col, _mm256_set1_pd(x[j]), v);
            }
            _mm256_storeu_pd(acc.as_mut_ptr().add(r), v);
            r += 4;
        }
        notrans_run(a, lda, x, i0 + full, j0, j1, &mut acc[full..]);
    }

    macro_rules! half_real_tile {
        ($t:ty, $kernel:ident, $widen8:ident, $narrow8:ident, $round8:ident) => {
            /// 16-bit rows, 8 widened per register; every FMA rounds
            /// through storage, matching the emulated scalar `mul_add`.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $kernel(
                a: &[$t],
                lda: usize,
                x: &[$t],
                i0: usize,
                j0: usize,
                j1: usize,
                acc: &mut [$t],
            ) {
                let full = acc.len() / 8 * 8;
                let ap = a.as_ptr() as *const u16;
                let mut r = 0;
                while r < full {
                    let mut v = _mm256_setzero_ps();
                    for j in j0..j1 {
                        let col =
                            $widen8(_mm_loadu_si128(ap.add(j * lda + i0 + r) as *const __m128i));
                        let xj = _mm256_set1_ps(x[j].to_f32());
                        v = $round8(_mm256_fmadd_ps(col, xj, v));
                    }
                    _mm_storeu_si128(acc.as_mut_ptr().add(r) as *mut __m128i, $narrow8(v));
                    r += 8;
                }
                notrans_run(a, lda, x, i0 + full, j0, j1, &mut acc[full..]);
            }
        };
    }

    half_real_tile!(f16, tile_f16, widen8_f16, narrow8_f16, round8_f16);
    half_real_tile!(bf16, tile_bf16, widen8_bf16, narrow8_bf16, round8_bf16);

    macro_rules! half_complex_tile {
        ($t:ty, $kernel:ident, $widen8:ident, $narrow8:ident, $round8:ident) => {
            /// 16-bit complex rows, 4 widened per register. Both FMAs of
            /// the complex `mul_add` round through storage, matching the
            /// emulated scalar arithmetic.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $kernel(
                a: &[Complex<$t>],
                lda: usize,
                x: &[Complex<$t>],
                i0: usize,
                j0: usize,
                j1: usize,
                acc: &mut [Complex<$t>],
            ) {
                let full = acc.len() / 4 * 4;
                let ap = a.as_ptr() as *const u16;
                let mut r = 0;
                while r < full {
                    let mut v = _mm256_setzero_ps();
                    for j in j0..j1 {
                        let col = $widen8(_mm_loadu_si128(
                            ap.add(2 * (j * lda + i0 + r)) as *const __m128i
                        ));
                        let (re, im) = (x[j].re.to_f32(), x[j].im.to_f32());
                        let x_ri = _mm256_setr_ps(re, im, re, im, re, im, re, im);
                        let x_sw = _mm256_setr_ps(im, re, im, re, im, re, im, re);
                        let inner = $round8(_mm256_fmadd_ps(neg_even_ps(dup_im_ps(col)), x_sw, v));
                        v = $round8(_mm256_fmadd_ps(dup_re_ps(col), x_ri, inner));
                    }
                    _mm_storeu_si128(acc.as_mut_ptr().add(r) as *mut __m128i, $narrow8(v));
                    r += 4;
                }
                notrans_run(a, lda, x, i0 + full, j0, j1, &mut acc[full..]);
            }
        };
    }

    half_complex_tile!(f16, tile_c16, widen8_f16, narrow8_f16, round8_f16);
    half_complex_tile!(bf16, tile_cb16, widen8_bf16, narrow8_bf16, round8_bf16);

    // -----------------------------------------------------------------------
    // Complex f64 / f32: both sweeps and the epilogue
    // -----------------------------------------------------------------------

    /// Independent accumulator registers per sweep kernel.
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
        /// register, for [`maskload`] / [`maskstore`].
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn tail_mask(rem: usize) -> M {
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(2 * rem as i64), _mm256_setr_epi64x(0, 1, 2, 3))
        }

        /// Load the masked lanes, zero the rest; memory behind a masked-off
        /// lane is not accessed (and cannot fault).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn maskload(p: *const f64, mask: M) -> V {
            _mm256_maskload_pd(p, mask)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn maskstore(p: *mut f64, mask: M, v: V) {
            _mm256_maskstore_pd(p, mask, v)
        }

        /// A whole register, or with `Some(mask)` its masked lanes.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn load(p: *const f64, tail: Option<M>) -> V {
            match tail {
                None => loadu(p),
                Some(mask) => maskload(p, mask),
            }
        }

        /// Element `*p` of [`LANES`] consecutive columns (`lda` complex
        /// values apart): two 128-bit loads.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn gather(p: *const f64, lda: usize) -> V {
            _mm256_loadu2_m128d(p.add(2 * lda), p)
        }

        /// One complex value as `[re, im]` pairs and as `[im, re]` pairs.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn splat(x: Complex<f64>) -> (V, V) {
            (_mm256_setr_pd(x.re, x.im, x.re, x.im), _mm256_setr_pd(x.im, x.re, x.im, x.re))
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
        pub unsafe fn maskload(p: *const f32, mask: M) -> V {
            _mm256_maskload_ps(p, mask)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn maskstore(p: *mut f32, mask: M, v: V) {
            _mm256_maskstore_ps(p, mask, v)
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn load(p: *const f32, tail: Option<M>) -> V {
            match tail {
                None => loadu(p),
                Some(mask) => maskload(p, mask),
            }
        }

        /// Four 64-bit loads: a `Complex<f32>` moves as one 64-bit
        /// pattern, and no arithmetic touches the `f64` view. (Loading 4
        /// rows of 4 columns and transposing in registers measured no
        /// faster.)
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn gather(p: *const f32, lda: usize) -> V {
            let at = |c: usize| (p.add(2 * c * lda) as *const f64).read_unaligned();
            _mm256_castpd_ps(_mm256_setr_pd(at(0), at(1), at(2), at(3)))
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn splat(x: Complex<f32>) -> (V, V) {
            (
                _mm256_setr_ps(x.re, x.im, x.re, x.im, x.re, x.im, x.re, x.im),
                _mm256_setr_ps(x.im, x.re, x.im, x.re, x.im, x.re, x.im, x.re),
            )
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

    /// What the outputs of a block sweep are — the `MODE` parameter of
    /// the register kernels. Rows of `A`: contiguous loads, reduction
    /// steps `lda` apart, `x[r]` broadcast to every output.
    const ROWS: u8 = 0;
    /// Columns of `A`: gathered loads, reduction steps contiguous, `x[r]`
    /// broadcast.
    const COLS: u8 = 1;

    macro_rules! complex_kernels {
        (
            $v:ident, $t:ty, $regs:ident, $sweep:ident, $freq_regs:ident, $freq_sweep:ident,
            $tile:ident, $trans:ident, $freq:ident, $scale:ident
        ) => {
            /// `R` accumulator registers of `LANES` neighbouring outputs
            /// each, walked through `steps` reduction steps in order.
            /// `ap` / `xp` point at the first output's first operands;
            /// `MODE` says how outputs and steps are laid out from there
            /// ([`ROWS`], [`COLS`]). With `Some(mask)` the (one) register
            /// is the outputs past the last whole one: only its masked
            /// lanes are loaded and stored, each with the chain it would
            /// have in a whole register.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $regs<const R: usize, const MODE: u8>(
                sign: $v::V,
                ap: *const $t,
                lda: usize,
                xp: *const $t,
                steps: usize,
                out: *mut $t,
                tail: Option<$v::M>,
            ) {
                let mut v = [$v::zero(); R];
                for r in 0..steps {
                    let (x_ri, x_sw) = $v::splat((xp.add(2 * r) as *const Complex<$t>).read());
                    for (k, vk) in v.iter_mut().enumerate() {
                        let a = if MODE == COLS {
                            $v::gather(ap.add(2 * (k * $v::LANES * lda + r)), lda)
                        } else {
                            $v::load(ap.add(2 * (r * lda + k * $v::LANES)), tail)
                        };
                        *vk = $v::cfma(a, sign, x_ri, x_sw, *vk);
                    }
                }
                for (k, vk) in v.iter().enumerate() {
                    match tail {
                        None => $v::storeu(out.add(2 * k * $v::LANES), *vk),
                        Some(mask) => $v::maskstore(out.add(2 * k * $v::LANES), mask, *vk),
                    }
                }
            }

            /// All registers of one tile: groups of [`IN_FLIGHT`], then
            /// one at a time, then — rows only — the partial register of
            /// the outputs left over. Returns the outputs covered; the
            /// caller's scalar run takes the rest (leftover *columns* of a
            /// transposed tile: a partial gather is not written).
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $sweep<const MODE: u8>(
                sign: $v::V,
                ap: *const $t,
                lda: usize,
                xp: *const $t,
                steps: usize,
                acc: &mut [Complex<$t>],
            ) -> usize {
                let out = acc.as_mut_ptr() as *mut $t;
                // Complex values of `a` from one output to the next.
                let oa = if MODE == COLS { lda } else { 1 };
                let mut o = 0;
                while o + IN_FLIGHT * $v::LANES <= acc.len() {
                    let at = ap.add(2 * o * oa);
                    $regs::<IN_FLIGHT, MODE>(sign, at, lda, xp, steps, out.add(2 * o), None);
                    o += IN_FLIGHT * $v::LANES;
                }
                while o + $v::LANES <= acc.len() {
                    let at = ap.add(2 * o * oa);
                    $regs::<1, MODE>(sign, at, lda, xp, steps, out.add(2 * o), None);
                    o += $v::LANES;
                }
                if MODE == ROWS && o < acc.len() {
                    let (at, mask) = (ap.add(2 * o * oa), Some($v::tail_mask(acc.len() - o)));
                    $regs::<1, MODE>(sign, at, lda, xp, steps, out.add(2 * o), mask);
                    o = acc.len();
                }
                o
            }

            /// The frequency-minor registers: `K` registers of `LANES`
            /// consecutive frequencies for each of `RB` output series
            /// (`row_step` apart in `a`), walked through `steps` reduction
            /// steps in order. Lane `f` pairs `a[j][r][f]` with `x[r][f]`
            /// (`lda` resp. `ldx` apart per step), nothing is broadcast;
            /// each step loads the `K` registers of `x` once and applies
            /// them to all `RB` series, every accumulator on its own
            /// chain. `out` holds `RB` runs of `out_ld` outputs; `tail` as
            /// for the block registers above.
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

            /// Complex rows via the exact `mul_add` mix.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $tile(
                a: &[Complex<$t>],
                lda: usize,
                x: &[Complex<$t>],
                i0: usize,
                j0: usize,
                j1: usize,
                acc: &mut [Complex<$t>],
            ) {
                let ap = a.as_ptr().add(j0 * lda + i0) as *const $t;
                let xp = x[j0..j1].as_ptr() as *const $t;
                let done = $sweep::<ROWS>($v::sign(false), ap, lda, xp, j1 - j0, acc);
                debug_assert_eq!(done, acc.len());
            }

            /// Complex columns: `acc[c] = Σ_i op(a[i][j0 + c])·x[i]` in
            /// increasing `i`, `op` = conjugation iff `conj`.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $trans(
                conj: bool,
                a: &[Complex<$t>],
                lda: usize,
                x: &[Complex<$t>],
                j0: usize,
                i0: usize,
                i1: usize,
                acc: &mut [Complex<$t>],
            ) {
                let ap = a.as_ptr().add(j0 * lda + i0) as *const $t;
                let xp = x[i0..i1].as_ptr() as *const $t;
                let done = $sweep::<COLS>($v::sign(conj), ap, lda, xp, i1 - i0, acc);
                trans_run(conj, a, lda, x, j0 + done, i0, i1, &mut acc[done..]);
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
                let alpha_ri = $v::splat(alpha).0;
                let beta_ri = beta.map(|b| $v::splat(b).0);
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

    complex_kernels!(
        pd,
        f64,
        regs_c64,
        sweep_c64,
        freq_regs_c64,
        freq_sweep_c64,
        tile_c64,
        trans_c64,
        freq_c64,
        scale_c64
    );
    complex_kernels!(
        ps,
        f32,
        regs_c32,
        sweep_c32,
        freq_regs_c32,
        freq_sweep_c32,
        tile_c32,
        trans_c32,
        freq_c32,
        scale_c32
    );
}
