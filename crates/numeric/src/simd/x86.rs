//! AVX2 + FMA kernels (x86-64), bit-identical to the portable scalars.
//!
//! # Why integer SIMD instead of F16C
//!
//! The host's `vcvtps2ph`/`vcvtph2ps` disagree with the crate's scalar
//! conversion algorithms on NaNs (`f32_to_f16_bits` quiets to
//! `sign|0x7e00` dropping the payload; the widening direction preserves
//! payloads *without* quieting signaling NaNs — hardware does neither
//! exactly). The kernels here instead replicate the scalar bit
//! algorithms with integer SIMD: branches become compare masks and
//! blends, the variable subnormal shifts become `vpsrlv`/`vpsllv`, and
//! the result is equal for **all** 2³² inputs, which the equivalence
//! suite checks exhaustively over the 2¹⁶ widening patterns and densely
//! over rounding boundaries for the narrowing direction.
//!
//! # Why lane-parallel arithmetic is bit-identical
//!
//! IEEE-754 `f32`/`f64` add/mul/FMA are deterministic functions of their
//! operands, and scalar Rust `mul_add` is the correctly-rounded fused
//! operation — exactly what `vfmadd` computes per lane. As long as a
//! vector kernel evaluates the *same expression tree per element* as the
//! scalar code (no reassociation, same fused/unfused mix), running eight
//! elements per instruction cannot change a single bit. The complex
//! products of [`ps`] / [`pd`] encode the exact operation mix of
//! [`crate::complex::Complex`]'s `Mul`/`mul_add`.
//!
//! # One vocabulary
//!
//! [`ps`] (4 `Complex<f32>` per register) and [`pd`] (2 `Complex<f64>`)
//! offer the same entries under the same names — register type, lane
//! count, tail mask, plain and masked load/store, lane arithmetic,
//! `splat` / `bcast`, `swap`, `dup_re` / `dup_im`, the sign masks, `cmul`
//! and `cfma` — so one kernel source instantiates for either precision.
//! The FFT butterflies, the SBGEMV tiles and the pointwise multiply are
//! all written against them; no other crate spells an intrinsic for
//! these operations.
//!
//! # Safety
//!
//! Every function here is `unsafe` with one uniform contract: the caller
//! must ensure the host supports AVX2 and FMA (the dispatcher in
//! [`super`] guarantees this via `level_supported`). Slice kernels have
//! no alignment requirements (unaligned loads/stores throughout).
#![allow(clippy::missing_safety_doc)]

use core::arch::x86_64::*;

use crate::complex::Complex;
use crate::half::{bf16, f16};

/// f32 lanes per 256-bit vector.
pub const F32_LANES: usize = 8;

// ---------------------------------------------------------------------------
// f16 ↔ f32
// ---------------------------------------------------------------------------

/// Narrow 8 f32 lanes to f16 bit patterns, left as 8 u16 values in i32
/// lanes (callers pack or re-widen). Replicates `f32_to_f16_bits`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn narrow_f16_lanes(v: __m256) -> __m256i {
    let bits = _mm256_castps_si256(v);
    let sign = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(0x8000));
    let exp = _mm256_and_si256(_mm256_srli_epi32::<23>(bits), _mm256_set1_epi32(0xff));
    let frac = _mm256_and_si256(bits, _mm256_set1_epi32(0x007f_ffff));
    let e = _mm256_sub_epi32(exp, _mm256_set1_epi32(127));
    let one = _mm256_set1_epi32(1);

    // Normal path: keep 10 bits, RTNE on the 13 dropped.
    let mant = _mm256_srli_epi32::<13>(frac);
    let rest = _mm256_and_si256(frac, _mm256_set1_epi32(0x1fff));
    let gt = _mm256_cmpgt_epi32(rest, _mm256_set1_epi32(0x1000));
    let tie = _mm256_cmpeq_epi32(rest, _mm256_set1_epi32(0x1000));
    let odd = _mm256_cmpeq_epi32(_mm256_and_si256(mant, one), one);
    let incr = _mm256_srli_epi32::<31>(_mm256_or_si256(gt, _mm256_and_si256(tie, odd)));
    let h_norm = _mm256_add_epi32(
        _mm256_or_si256(_mm256_slli_epi32::<10>(_mm256_add_epi32(e, _mm256_set1_epi32(15))), mant),
        incr,
    );

    // Subnormal path: shift the full 24-bit significand right by
    // (-e - 1) ∈ [14, 24], RTNE on the dropped bits. Lanes outside the
    // subnormal range compute garbage here and are blended away below
    // (variable shifts with out-of-range counts just produce 0).
    let full = _mm256_or_si256(frac, _mm256_set1_epi32(0x0080_0000));
    let shift = _mm256_sub_epi32(_mm256_set1_epi32(-1), e);
    let mant_s = _mm256_srlv_epi32(full, shift);
    let low_mask = _mm256_sub_epi32(_mm256_sllv_epi32(one, shift), one);
    let rest_s = _mm256_and_si256(full, low_mask);
    let halfway = _mm256_sllv_epi32(one, _mm256_sub_epi32(shift, one));
    let gt_s = _mm256_cmpgt_epi32(rest_s, halfway);
    let tie_s = _mm256_cmpeq_epi32(rest_s, halfway);
    let odd_s = _mm256_cmpeq_epi32(_mm256_and_si256(mant_s, one), one);
    let incr_s = _mm256_srli_epi32::<31>(_mm256_or_si256(gt_s, _mm256_and_si256(tie_s, odd_s)));
    let h_sub = _mm256_add_epi32(mant_s, incr_s);

    // Select by range, lowest priority first: zero → subnormal → normal
    // → overflow-to-inf → source inf/NaN.
    let mut h = _mm256_setzero_si256();
    let m_sub = _mm256_cmpgt_epi32(e, _mm256_set1_epi32(-26));
    h = _mm256_blendv_epi8(h, h_sub, m_sub);
    let m_norm = _mm256_cmpgt_epi32(e, _mm256_set1_epi32(-15));
    h = _mm256_blendv_epi8(h, h_norm, m_norm);
    let m_ovf = _mm256_cmpgt_epi32(e, _mm256_set1_epi32(15));
    h = _mm256_blendv_epi8(h, _mm256_set1_epi32(0x7c00), m_ovf);
    let m_naninf = _mm256_cmpeq_epi32(exp, _mm256_set1_epi32(0xff));
    let h_naninf = _mm256_blendv_epi8(
        _mm256_set1_epi32(0x7e00), // NaN: quiet, payload dropped
        _mm256_set1_epi32(0x7c00), // infinity
        _mm256_cmpeq_epi32(frac, _mm256_setzero_si256()),
    );
    h = _mm256_blendv_epi8(h, h_naninf, m_naninf);
    _mm256_or_si256(h, sign)
}

/// Widen 8 f16 bit patterns held in i32 lanes to 8 f32 lanes.
/// Replicates `f16_bits_to_f32` (NaN payloads preserved, not quieted).
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn widen_f16_lanes(h32: __m256i) -> __m256 {
    let sign = _mm256_slli_epi32::<16>(_mm256_and_si256(h32, _mm256_set1_epi32(0x8000)));
    let em = _mm256_and_si256(h32, _mm256_set1_epi32(0x7fff));
    // Shift exponent+mantissa into f32 position and rebias 15 → 127.
    let o = _mm256_add_epi32(_mm256_slli_epi32::<13>(em), _mm256_set1_epi32(112 << 23));
    // Inf/NaN: rebias the exponent again, 143 → 255 (mantissa intact).
    let m_naninf = _mm256_cmpgt_epi32(em, _mm256_set1_epi32(0x7bff));
    let o = _mm256_blendv_epi8(o, _mm256_add_epi32(o, _mm256_set1_epi32(112 << 23)), m_naninf);
    // Zero/subnormal: bump the exponent to 113 and renormalize with an
    // exact float subtraction (2⁻¹⁴ magic), yielding frac·2⁻²⁴ exactly.
    let m_sub = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x0400), em);
    let magic = _mm256_castsi256_ps(_mm256_set1_epi32(113 << 23));
    let o_sub = _mm256_castps_si256(_mm256_sub_ps(
        _mm256_castsi256_ps(_mm256_add_epi32(o, _mm256_set1_epi32(1 << 23))),
        magic,
    ));
    let o = _mm256_blendv_epi8(o, o_sub, m_sub);
    _mm256_castsi256_ps(_mm256_or_si256(o, sign))
}

/// Pack 8 u16 values held in i32 lanes into the low 128 bits.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn pack_u16(h: __m256i) -> __m128i {
    let packed = _mm256_packus_epi32(h, h);
    _mm256_castsi256_si128(_mm256_permute4x64_epi64::<0b11_01_10_00>(packed))
}

/// Narrow 8 f32s to 8 f16 bit patterns (low 128 bits of the result).
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn narrow8_f16(v: __m256) -> __m128i {
    pack_u16(narrow_f16_lanes(v))
}

/// Widen 8 f16 bit patterns (low 128 bits) to 8 f32s.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn widen8_f16(h: __m128i) -> __m256 {
    widen_f16_lanes(_mm256_cvtepu16_epi32(h))
}

/// Round 8 f32 lanes through f16 storage (narrow + exact re-widen) —
/// the per-operation storage rounding of the emulated `f16` arithmetic,
/// fused so the u16 pack/unpack is skipped.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn round8_f16(v: __m256) -> __m256 {
    widen_f16_lanes(narrow_f16_lanes(v))
}

// ---------------------------------------------------------------------------
// bf16 ↔ f32
// ---------------------------------------------------------------------------

/// Narrow 8 f32 lanes to bf16 bit patterns in i32 lanes.
/// Replicates `f32_to_bf16_bits`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn narrow_bf16_lanes(v: __m256) -> __m256i {
    let bits = _mm256_castps_si256(v);
    let mag = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fff_ffff));
    // Round to nearest-even on the dropped 16 bits. The addition wraps
    // identically to the scalar u32 arithmetic.
    let lsb = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(1));
    let rounded = _mm256_srli_epi32::<16>(_mm256_add_epi32(
        _mm256_add_epi32(bits, _mm256_set1_epi32(0x7fff)),
        lsb,
    ));
    // NaN: quiet it, keep the sign and top payload bits.
    let m_nan = _mm256_cmpgt_epi32(mag, _mm256_set1_epi32(0x7f80_0000));
    let quieted = _mm256_or_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(0x0040));
    let h = _mm256_blendv_epi8(rounded, quieted, m_nan);
    _mm256_and_si256(h, _mm256_set1_epi32(0xffff))
}

/// Narrow 8 f32s to 8 bf16 bit patterns (low 128 bits of the result).
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn narrow8_bf16(v: __m256) -> __m128i {
    pack_u16(narrow_bf16_lanes(v))
}

/// Widen 8 bf16 bit patterns (low 128 bits) to 8 f32s (exact).
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn widen8_bf16(h: __m128i) -> __m256 {
    _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(h)))
}

/// Round 8 f32 lanes through bf16 storage (fused narrow + widen).
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn round8_bf16(v: __m256) -> __m256 {
    _mm256_castsi256_ps(_mm256_slli_epi32::<16>(narrow_bf16_lanes(v)))
}

// ---------------------------------------------------------------------------
// Batched slice conversions (vector body + portable tail)
// ---------------------------------------------------------------------------

macro_rules! conversion_loop {
    ($src:ident, $dst:ident, $n:ident, $body:expr) => {{
        assert_eq!($src.len(), $dst.len());
        let $n = $src.len() / F32_LANES * F32_LANES;
        $body
    }};
}

/// Batched exact widening `f16 → f32`. Caller contract: AVX2+FMA host.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn widen_f16_to_f32(src: &[f16], dst: &mut [f32]) {
    conversion_loop!(src, dst, n, {
        let sp = src.as_ptr() as *const u16;
        let dp = dst.as_mut_ptr();
        for i in (0..n).step_by(F32_LANES) {
            let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
            _mm256_storeu_ps(dp.add(i), widen8_f16(h));
        }
        super::portable::widen_f16_to_f32(&src[n..], &mut dst[n..]);
    })
}

/// Batched RTNE narrowing `f32 → f16`. Caller contract: AVX2+FMA host.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn narrow_f32_to_f16(src: &[f32], dst: &mut [f16]) {
    conversion_loop!(src, dst, n, {
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr() as *mut u16;
        for i in (0..n).step_by(F32_LANES) {
            let v = _mm256_loadu_ps(sp.add(i));
            _mm_storeu_si128(dp.add(i) as *mut __m128i, narrow8_f16(v));
        }
        super::portable::narrow_f32_to_f16(&src[n..], &mut dst[n..]);
    })
}

/// Batched exact widening `bf16 → f32`. Caller contract: AVX2+FMA host.
///
/// Unlike the f16 pair, the bf16 widen is a pure `bits << 16`, so a
/// 256-bit load covers 16 elements at once: interleaving each 16-bit
/// word *above* a zero word IS the shift, and two in-lane unpacks plus
/// two lane permutes produce both contiguous output registers — fewer
/// loads and loop iterations than the 8-wide `widen8_bf16` primitive
/// (which stays as the building block for the fused FFT/GEMV kernels).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn widen_bf16_to_f32(src: &[bf16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    let n = src.len() / 16 * 16;
    let sp = src.as_ptr() as *const u16;
    let dp = dst.as_mut_ptr();
    let zero = _mm256_setzero_si256();
    for i in (0..n).step_by(16) {
        let v = _mm256_loadu_si256(sp.add(i) as *const __m256i);
        // In-lane interleaves: lo = elems {0..3, 8..11} << 16,
        // hi = elems {4..7, 12..15} << 16.
        let lo = _mm256_unpacklo_epi16(zero, v);
        let hi = _mm256_unpackhi_epi16(zero, v);
        let first = _mm256_permute2x128_si256::<0x20>(lo, hi);
        let second = _mm256_permute2x128_si256::<0x31>(lo, hi);
        _mm256_storeu_ps(dp.add(i), _mm256_castsi256_ps(first));
        _mm256_storeu_ps(dp.add(i + 8), _mm256_castsi256_ps(second));
    }
    super::portable::widen_bf16_to_f32(&src[n..], &mut dst[n..]);
}

/// Batched RTNE narrowing `f32 → bf16`. Caller contract: AVX2+FMA host.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn narrow_f32_to_bf16(src: &[f32], dst: &mut [bf16]) {
    conversion_loop!(src, dst, n, {
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr() as *mut u16;
        for i in (0..n).step_by(F32_LANES) {
            let v = _mm256_loadu_ps(sp.add(i));
            _mm_storeu_si128(dp.add(i) as *mut __m128i, narrow8_bf16(v));
        }
        super::portable::narrow_f32_to_bf16(&src[n..], &mut dst[n..]);
    })
}

// ---------------------------------------------------------------------------
// Interleaved-complex register vocabulary
// ---------------------------------------------------------------------------

/// One vocabulary entry: `#[inline]` so it folds into the kernels of every
/// crate that uses it (an out-of-line `target_feature` helper is a real
/// call with its vector arguments spilled to memory).
macro_rules! op {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block) => {
        $(#[$doc])*
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn $name($($arg: $ty),*) $(-> $ret)? $body
    };
}

/// The entries written once over the per-precision ones in scope: the
/// complex products and the pointwise multiply. `cmul` / `cfma` encode
/// the exact operation mix of `Complex::{mul, mul_add}`, so lane-parallel
/// complex arithmetic is bit-identical to the scalar code.
macro_rules! complex_ops {
    () => {
        op! {
            /// Mask that conjugates a register under [`xor`] when `conj`,
            /// and leaves it alone otherwise. XOR is exact, `−0` and NaN
            /// included.
            fn conj_mask(conj: bool) -> V {
                if conj { neg_im() } else { splat(0.0) }
            }
        }
        op! {
            /// `a·w` per complex lane, with `w` given as `w_ri = [re, im]`
            /// pairs and `w_swap = swap(w_ri)`. The tree of `Complex::mul`:
            /// `re = fma(a.re, w.re, −(a.im·w.im))`,
            /// `im = fma(a.re, w.im, a.im·w.re)`.
            fn cmul(a: V, w_ri: V, w_swap: V) -> V {
                fma(dup_re(a), w_ri, xor(mul(dup_im(a), w_swap), neg_re()))
            }
        }
        op! {
            /// `s·x + p` with `s = a`, its `im` products signed by `sign`:
            /// [`neg_re`] gives `a`, [`neg_im`] gives `conj(a)`. The tree of
            /// `Complex::mul_add`:
            /// `re = fma(s.re, x.re, fma(−s.im, x.im, p.re))`,
            /// `im = fma(s.re, x.im, fma( s.im, x.re, p.im))`.
            fn cfma(a: V, sign: V, x_ri: V, x_swap: V, p: V) -> V {
                fma(dup_re(a), x_ri, fma(xor(dup_im(a), sign), x_swap, p))
            }
        }
        op! {
            /// `a·x + p`: [`cfma`] with the real-lane sign mask.
            fn cmuladd(a: V, x_ri: V, x_swap: V, p: V) -> V {
                cfma(a, neg_re(), x_ri, x_swap, p)
            }
        }

        /// Pointwise `a[i] *= b[i]`, or `a[i] *= conj(b[i])` when `conj`:
        /// [`cmul`] per lane, the conjugation a sign XOR. Extents:
        /// `a.len() == b.len()`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn pointwise_mul(a: &mut [C], b: &[C], conj: bool) {
            let n = a.len();
            let (ap, bp) = (a.as_mut_ptr(), b.as_ptr());
            let mask = conj_mask(conj);
            let mut i = 0;
            while i + LANES <= n {
                let w = xor(load(bp.add(i)), mask);
                store(ap.add(i), cmul(load(ap.add(i)), w, swap(w)));
                i += LANES;
            }
            scalar_tail(&mut a[i..], &b[i..], conj);
        }
    };
}

/// The scalar `a[i] *= b[i]` (`conj(b[i])`) of the elements past the
/// last whole register, inlined into the calling kernel's context.
#[inline(always)]
fn scalar_tail<T: crate::Real>(a: &mut [Complex<T>], b: &[Complex<T>], conj: bool) {
    for (g, s) in a.iter_mut().zip(b) {
        *g *= if conj { s.conj() } else { *s };
    }
}

/// `Complex<f32>` registers: a `__m256` holds 4 interleaved complex
/// values as `[re0, im0, …, re3, im3]`.
pub mod ps {
    use super::*;

    /// The complex element type.
    pub type C = Complex<f32>;
    /// One register of [`LANES`] complex values.
    pub type V = __m256;
    /// Lane mask of a partial register.
    pub type M = __m256i;
    /// Complex values per register.
    pub const LANES: usize = 4;

    op! { fn load(p: *const C) -> V { _mm256_loadu_ps(p as *const f32) } }
    op! { fn store(p: *mut C, v: V) { _mm256_storeu_ps(p as *mut f32, v) } }
    op! {
        /// Lane mask of the first `rem < LANES` complex values.
        fn tail_mask(rem: usize) -> M {
            _mm256_cmpgt_epi32(_mm256_set1_epi32(2 * rem as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
        }
    }
    op! {
        /// A whole register, or with `Some(mask)` its masked lanes with the
        /// rest zeroed; memory behind a masked-off lane is not accessed.
        fn load_masked(p: *const C, tail: Option<M>) -> V {
            match tail {
                None => load(p),
                Some(mask) => _mm256_maskload_ps(p as *const f32, mask),
            }
        }
    }
    op! {
        /// A whole register, or with `Some(mask)` its masked lanes only.
        fn store_masked(p: *mut C, tail: Option<M>, v: V) {
            match tail {
                None => store(p, v),
                Some(mask) => _mm256_maskstore_ps(p as *mut f32, mask, v),
            }
        }
    }
    op! { fn add(a: V, b: V) -> V { _mm256_add_ps(a, b) } }
    op! { fn sub(a: V, b: V) -> V { _mm256_sub_ps(a, b) } }
    op! { fn mul(a: V, b: V) -> V { _mm256_mul_ps(a, b) } }
    op! {
        /// `a·b + c`, one rounding.
        fn fma(a: V, b: V, c: V) -> V { _mm256_fmadd_ps(a, b, c) }
    }
    op! { fn xor(a: V, b: V) -> V { _mm256_xor_ps(a, b) } }
    op! {
        /// `[a.re − b.re, a.im + b.im]` per pair.
        fn addsub(a: V, b: V) -> V { _mm256_addsub_ps(a, b) }
    }
    op! { fn splat(x: f32) -> V { _mm256_set1_ps(x) } }
    op! {
        /// One complex value in every pair.
        fn bcast(w: C) -> V { _mm256_setr_ps(w.re, w.im, w.re, w.im, w.re, w.im, w.re, w.im) }
    }
    op! {
        /// Swap the two halves of each `(re, im)` pair.
        fn swap(v: V) -> V { _mm256_permute_ps::<0b10_11_00_01>(v) }
    }
    op! {
        /// The real lanes, duplicated into both halves of each pair.
        fn dup_re(v: V) -> V { _mm256_moveldup_ps(v) }
    }
    op! {
        /// The imaginary lanes, duplicated into both halves of each pair.
        fn dup_im(v: V) -> V { _mm256_movehdup_ps(v) }
    }
    op! {
        /// Sign mask over the real lanes.
        fn neg_re() -> V { _mm256_setr_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0) }
    }
    op! {
        /// Sign mask over the imaginary lanes.
        fn neg_im() -> V { _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0) }
    }

    complex_ops!();
}

/// `Complex<f64>` registers: a `__m256d` holds 2 interleaved complex
/// values. Same entries as [`ps`].
pub mod pd {
    use super::*;

    pub type C = Complex<f64>;
    pub type V = __m256d;
    pub type M = __m256i;
    pub const LANES: usize = 2;

    op! { fn load(p: *const C) -> V { _mm256_loadu_pd(p as *const f64) } }
    op! { fn store(p: *mut C, v: V) { _mm256_storeu_pd(p as *mut f64, v) } }
    op! {
        fn tail_mask(rem: usize) -> M {
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(2 * rem as i64), _mm256_setr_epi64x(0, 1, 2, 3))
        }
    }
    op! {
        fn load_masked(p: *const C, tail: Option<M>) -> V {
            match tail {
                None => load(p),
                Some(mask) => _mm256_maskload_pd(p as *const f64, mask),
            }
        }
    }
    op! {
        fn store_masked(p: *mut C, tail: Option<M>, v: V) {
            match tail {
                None => store(p, v),
                Some(mask) => _mm256_maskstore_pd(p as *mut f64, mask, v),
            }
        }
    }
    op! { fn add(a: V, b: V) -> V { _mm256_add_pd(a, b) } }
    op! { fn sub(a: V, b: V) -> V { _mm256_sub_pd(a, b) } }
    op! { fn mul(a: V, b: V) -> V { _mm256_mul_pd(a, b) } }
    op! { fn fma(a: V, b: V, c: V) -> V { _mm256_fmadd_pd(a, b, c) } }
    op! { fn xor(a: V, b: V) -> V { _mm256_xor_pd(a, b) } }
    op! { fn addsub(a: V, b: V) -> V { _mm256_addsub_pd(a, b) } }
    op! { fn splat(x: f64) -> V { _mm256_set1_pd(x) } }
    op! { fn bcast(w: C) -> V { _mm256_setr_pd(w.re, w.im, w.re, w.im) } }
    op! { fn swap(v: V) -> V { _mm256_permute_pd::<0b0101>(v) } }
    op! { fn dup_re(v: V) -> V { _mm256_movedup_pd(v) } }
    op! { fn dup_im(v: V) -> V { _mm256_permute_pd::<0b1111>(v) } }
    op! { fn neg_re() -> V { _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0) } }
    op! { fn neg_im() -> V { _mm256_setr_pd(0.0, -0.0, 0.0, -0.0) } }

    complex_ops!();
}

// ---------------------------------------------------------------------------
// 16-bit pointwise multiply: widen to `f32` registers, round through
// storage where the emulated scalar arithmetic rounds.
// ---------------------------------------------------------------------------

macro_rules! half_pointwise {
    ($name:ident, $t:ty, $widen8:ident, $narrow8:ident, $round8:ident) => {
        /// Pointwise `a[i] *= b[i]` (`conj(b[i])` when `conj`) over 16-bit
        /// complex values, [`ps::LANES`] per step: the inner product rounds
        /// through storage, then the FMA result, as `Complex::mul` does.
        /// Extents: `a.len() == b.len()`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn $name(a: &mut [Complex<$t>], b: &[Complex<$t>], conj: bool) {
            use ps::*;
            let n = a.len();
            let (ap, bp) = (a.as_mut_ptr() as *mut u16, b.as_ptr() as *const u16);
            let mask = conj_mask(conj);
            let mut i = 0;
            while i + LANES <= n {
                let v = $widen8(_mm_loadu_si128(ap.add(2 * i) as *const __m128i));
                let w = xor($widen8(_mm_loadu_si128(bp.add(2 * i) as *const __m128i)), mask);
                let inner = xor($round8(mul(dup_im(v), swap(w))), neg_re());
                let out = $narrow8(fma(dup_re(v), w, inner));
                _mm_storeu_si128(ap.add(2 * i) as *mut __m128i, out);
                i += LANES;
            }
            scalar_tail(&mut a[i..], &b[i..], conj);
        }
    };
}

half_pointwise!(pointwise_mul_f16, f16, widen8_f16, narrow8_f16, round8_f16);
half_pointwise!(pointwise_mul_bf16, bf16, widen8_bf16, narrow8_bf16, round8_bf16);
