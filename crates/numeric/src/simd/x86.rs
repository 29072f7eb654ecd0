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
//! helpers at the bottom encode the exact operation mix of
//! [`crate::complex::Complex`]'s `Mul`/`mul_add`.
//!
//! # Safety
//!
//! Every function here is `unsafe` with one uniform contract: the caller
//! must ensure the host supports AVX2 and FMA (the dispatcher in
//! [`super`] guarantees this via `level_supported`). Slice kernels have
//! no alignment requirements (unaligned loads/stores throughout).
#![allow(clippy::missing_safety_doc)]

use core::arch::x86_64::*;

use crate::half::{bf16, f16};

/// f32 lanes per 256-bit vector.
pub const F32_LANES: usize = 8;
/// f64 lanes per 256-bit vector.
pub const F64_LANES: usize = 4;

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
// Interleaved-complex building blocks (shared by the FFT and BLAS kernels)
// ---------------------------------------------------------------------------
//
// A `__m256` holds 4 interleaved `Complex<f32>` as [re0, im0, …, re3, im3];
// a `__m256d` holds 2 `Complex<f64>`. The helpers below encode the exact
// operation mix of `Complex::{Mul, mul_add}`, so lane-parallel complex
// arithmetic stays bit-identical to the scalar implementations.

/// Duplicate the even (real) lanes into both halves of each pair.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dup_re_ps(v: __m256) -> __m256 {
    _mm256_moveldup_ps(v)
}

/// Duplicate the odd (imaginary) lanes into both halves of each pair.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dup_im_ps(v: __m256) -> __m256 {
    _mm256_movehdup_ps(v)
}

/// Swap the two halves of each (re, im) pair.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn swap_pairs_ps(v: __m256) -> __m256 {
    _mm256_permute_ps::<0b10_11_00_01>(v)
}

/// Flip the sign of the even (real) lanes — an exact bit operation.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn neg_even_ps(v: __m256) -> __m256 {
    _mm256_xor_ps(v, _mm256_setr_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0))
}

/// Flip the sign of the odd (imaginary) lanes — an exact bit operation.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn neg_odd_ps(v: __m256) -> __m256 {
    _mm256_xor_ps(v, _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0))
}

/// Element-wise complex multiply `a * w`, with `w` pre-split into
/// `w_ri = [re, im]` pairs and `w_swap = [im, re]` pairs. Replicates
/// `Complex::<f32>::mul` exactly:
/// `re = fma(a.re, w.re, -(a.im·w.im))`, `im = fma(a.re, w.im, a.im·w.re)`.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn cmul_ps(a: __m256, w_ri: __m256, w_swap: __m256) -> __m256 {
    let inner = neg_even_ps(_mm256_mul_ps(dup_im_ps(a), w_swap));
    _mm256_fmadd_ps(dup_re_ps(a), w_ri, inner)
}

/// Element-wise complex FMA `a * x + p`, replicating
/// `Complex::<f32>::mul_add` exactly:
/// `re = fma(a.re, x.re, fma(-a.im, x.im, p.re))`,
/// `im = fma(a.re, x.im, fma( a.im, x.re, p.im))`.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn cmuladd_ps(a: __m256, x_ri: __m256, x_swap: __m256, p: __m256) -> __m256 {
    let inner = _mm256_fmadd_ps(neg_even_ps(dup_im_ps(a)), x_swap, p);
    _mm256_fmadd_ps(dup_re_ps(a), x_ri, inner)
}

/// Duplicate the even (real) lanes of 2 packed `Complex<f64>`.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dup_re_pd(v: __m256d) -> __m256d {
    _mm256_movedup_pd(v)
}

/// Duplicate the odd (imaginary) lanes of 2 packed `Complex<f64>`.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dup_im_pd(v: __m256d) -> __m256d {
    _mm256_permute_pd::<0b1111>(v)
}

/// Swap the halves of each (re, im) `f64` pair.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn swap_pairs_pd(v: __m256d) -> __m256d {
    _mm256_permute_pd::<0b0101>(v)
}

/// Flip the sign of the even (real) `f64` lanes.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn neg_even_pd(v: __m256d) -> __m256d {
    _mm256_xor_pd(v, _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0))
}

/// Flip the sign of the odd (imaginary) `f64` lanes.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn neg_odd_pd(v: __m256d) -> __m256d {
    _mm256_xor_pd(v, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0))
}

/// `f64` analogue of [`cmul_ps`].
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn cmul_pd(a: __m256d, w_ri: __m256d, w_swap: __m256d) -> __m256d {
    let inner = neg_even_pd(_mm256_mul_pd(dup_im_pd(a), w_swap));
    _mm256_fmadd_pd(dup_re_pd(a), w_ri, inner)
}

/// `f64` analogue of [`cmuladd_ps`].
#[inline]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn cmuladd_pd(a: __m256d, x_ri: __m256d, x_swap: __m256d, p: __m256d) -> __m256d {
    let inner = _mm256_fmadd_pd(neg_even_pd(dup_im_pd(a)), x_swap, p);
    _mm256_fmadd_pd(dup_re_pd(a), x_ri, inner)
}
