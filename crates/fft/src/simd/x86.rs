//! AVX2+FMA kernels. Bit-identical to the scalar passes they shadow
//! (`crate::iterative::{butterfly2, butterfly4, butterfly16, butterfly_odd}`,
//! `crate::real::{unpack_pair, repack_pair}`);
//! see the module doc of [`super`] for the identity argument and
//! `fftmatvec_numeric::simd::x86` for the shared complex/conversion
//! building blocks.
//!
//! # Safety
//!
//! Uniform contract for every function: the caller must guarantee the
//! host supports AVX2 and FMA, and the slice extents each kernel names —
//! both are established by the dispatcher in [`super`] (`fma_active`, and
//! an `assert!` on the extents before every call). Slices are accessed
//! unaligned through raw pointers.
#![allow(clippy::missing_safety_doc)]

use core::arch::x86_64::*;

use fftmatvec_numeric::half::{bf16, f16};
use fftmatvec_numeric::simd::x86::{
    cmul_pd, cmul_ps, cmuladd_pd, cmuladd_ps, dup_im_ps, dup_re_ps, narrow8_bf16, narrow8_f16,
    neg_even_ps, neg_odd_ps, round8_bf16, round8_f16, swap_pairs_pd, swap_pairs_ps, widen8_bf16,
    widen8_f16,
};
use fftmatvec_numeric::Complex;

use crate::iterative::{
    butterfly16, butterfly2, butterfly4, butterfly_odd, twiddle2, twiddles16, twiddles4,
};
use crate::plan::MAX_RADIX;
use crate::real::{repack_pair, unpack_pair};

// ---------------------------------------------------------------------------
// f32 / f64 kernels (native lanes, no storage rounding)
// ---------------------------------------------------------------------------
//
// The two precisions share one kernel source, `native_kernels!`, written
// against a per-precision vocabulary of register operations: the modules
// `ps` (4 `Complex<f32>` per register) and `pd` (2 `Complex<f64>`).

/// One vocabulary entry: `#[inline]` so it folds into the kernels (an
/// out-of-line `target_feature` helper is a real call with its vector
/// arguments spilled).
macro_rules! op {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block) => {
        $(#[$doc])*
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $name($($arg: $ty),*) $(-> $ret)? $body
    };
}

/// The kernels, over the vocabulary in scope: `C` (the complex type), `V`
/// (one register of `L` interleaved complex values), `load`/`store`,
/// `add`/`sub`/`mul`/`xor`/`addsub`, `splat`, `bcast`, `cmul`, `cmuladd`, `swap`,
/// `neg_re`/`neg_im`, `reverse`, `store_rows2`/`store_rows4`.
macro_rules! native_kernels {
    () => {
        op! {
            /// Sign mask conjugating a register of twiddles for the inverse
            /// transform (and nothing for the forward one): XOR is exact.
            fn conj_mask(inverse: bool) -> V {
                if inverse { neg_im() } else { splat(0.0) }
            }
        }

        /// Radix-2 Stockham stage, `L` butterflies per step: lanes across
        /// `q` for `s ≥ L`, across `p` for the first stage (`s == 1`,
        /// outputs transposed in-register). Extents: `src.len() ==
        /// dst.len() == 2·m·s`, `tw.len() == m`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix2(
            src: &[C],
            tw: &[C],
            dst: &mut [C],
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            let (sp, tp, dp) = (src.as_ptr(), tw.as_ptr(), dst.as_mut_ptr());
            let sm = s * m;
            if s == 1 {
                let conj = conj_mask(inverse);
                let mut p = 0;
                while p + L <= m {
                    let a = load(sp.add(p));
                    let b = load(sp.add(m + p));
                    let w = xor(load(tp.add(p)), conj);
                    store_rows2(dp.add(2 * p), add(a, b), cmul(sub(a, b), w, swap(w)));
                    p += L;
                }
                for p in p..m {
                    butterfly2(src, dst, (p, m), (2 * p, 1), twiddle2(tw, p, inverse));
                }
                return;
            }
            for p in 0..m {
                let w = twiddle2(tw, p, inverse);
                let w_ri = bcast(w);
                let w_swap = swap(w_ri);
                let i0 = s * p;
                let o0 = 2 * s * p;
                let mut q = 0;
                while q + L <= s {
                    let a = load(sp.add(i0 + q));
                    let b = load(sp.add(i0 + sm + q));
                    store(dp.add(o0 + q), add(a, b));
                    store(dp.add(o0 + s + q), cmul(sub(a, b), w_ri, w_swap));
                    q += L;
                }
                for q in q..s {
                    butterfly2(src, dst, (i0 + q, sm), (o0 + q, s), w);
                }
            }
        }

        op! {
            /// `L` radix-4 butterflies on registers: the expression tree
            /// of [`butterfly4`] per lane. `ih_mask` turns the swapped `h`
            /// into `∓i·h` (`neg_im` forward, `neg_re` inverse).
            fn butterflies4(t: [V; 4], w: [V; 3], ih_mask: V) -> [V; 4] {
                let e = add(t[0], t[2]);
                let f = sub(t[0], t[2]);
                let g = add(t[1], t[3]);
                let h = sub(t[1], t[3]);
                let ih = xor(swap(h), ih_mask);
                [
                    add(e, g),
                    cmul(add(f, ih), w[0], swap(w[0])),
                    cmul(sub(e, g), w[1], swap(w[1])),
                    cmul(sub(f, ih), w[2], swap(w[2])),
                ]
            }
        }

        /// Radix-4 Stockham stage; same lane geometry as [`radix2`].
        /// Extents: `src.len() == dst.len() == 4·m·s`, `tw.len() == 3·m`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix4(
            src: &[C],
            tw: &[C],
            dst: &mut [C],
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            let (sp, tp, dp) = (src.as_ptr(), tw.as_ptr(), dst.as_mut_ptr());
            let sm = s * m;
            let ih_mask = if inverse { neg_re() } else { neg_im() };
            if s == 1 {
                let conj = conj_mask(inverse);
                let mut p = 0;
                while p + L <= m {
                    let t = [
                        load(sp.add(p)),
                        load(sp.add(m + p)),
                        load(sp.add(2 * m + p)),
                        load(sp.add(3 * m + p)),
                    ];
                    let w = [
                        xor(load(tp.add(p)), conj),
                        xor(load(tp.add(m + p)), conj),
                        xor(load(tp.add(2 * m + p)), conj),
                    ];
                    store_rows4(dp.add(4 * p), butterflies4(t, w, ih_mask));
                    p += L;
                }
                for p in p..m {
                    butterfly4(src, dst, (p, m), (4 * p, 1), twiddles4(tw, m, p, inverse), inverse);
                }
                return;
            }
            for p in 0..m {
                let ws = twiddles4(tw, m, p, inverse);
                let w = [bcast(ws[0]), bcast(ws[1]), bcast(ws[2])];
                let i0 = s * p;
                let o0 = 4 * s * p;
                let mut q = 0;
                while q + L <= s {
                    let t = [
                        load(sp.add(i0 + q)),
                        load(sp.add(i0 + sm + q)),
                        load(sp.add(i0 + 2 * sm + q)),
                        load(sp.add(i0 + 3 * sm + q)),
                    ];
                    let o = butterflies4(t, w, ih_mask);
                    store(dp.add(o0 + q), o[0]);
                    store(dp.add(o0 + s + q), o[1]);
                    store(dp.add(o0 + 2 * s + q), o[2]);
                    store(dp.add(o0 + 3 * s + q), o[3]);
                    q += L;
                }
                for q in q..s {
                    butterfly4(src, dst, (i0 + q, sm), (o0 + q, s), ws, inverse);
                }
            }
        }

        /// Radix-16 pass — the radix-4 stages at strides `s` and `4s` in
        /// one trip through memory — `L` butterflies per step across `q`
        /// (`s ≥ L`): [`butterflies4`] twice per lane, the tree of
        /// [`butterfly16`]. Extents: `src.len() == dst.len() == 16·m·s`,
        /// `tw_a.len() == 12·m`, `tw_b.len() == 3·m`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix16(
            src: &[C],
            tw_a: &[C],
            tw_b: &[C],
            dst: &mut [C],
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            let (sp, ta, tb, dp) = (src.as_ptr(), tw_a.as_ptr(), tw_b.as_ptr(), dst.as_mut_ptr());
            let sm = s * m;
            let ih_mask = if inverse { neg_re() } else { neg_im() };
            let conj = conj_mask(inverse);
            // Twiddle `x` of a plane, broadcast straight from the table
            // and conjugated in the register: the values of
            // [`twiddles16`].
            let tw = |t: *const C, x: usize| xor(bcast(*t.add(x)), conj);
            for p in 0..m {
                let mut wa = [[splat(0.0); 3]; 4];
                for (l, wl) in wa.iter_mut().enumerate() {
                    for (k, w) in wl.iter_mut().enumerate() {
                        *w = tw(ta, 4 * m * k + m * l + p);
                    }
                }
                let wb = [tw(tb, p), tw(tb, m + p), tw(tb, 2 * m + p)];
                let i0 = s * p;
                let o0 = 16 * s * p;
                let mut q = 0;
                while q + L <= s {
                    let mut x = [[splat(0.0); 4]; 4];
                    for l in 0..4 {
                        let t = [
                            load(sp.add(i0 + sm * l + q)),
                            load(sp.add(i0 + sm * (l + 4) + q)),
                            load(sp.add(i0 + sm * (l + 8) + q)),
                            load(sp.add(i0 + sm * (l + 12) + q)),
                        ];
                        x[l] = butterflies4(t, wa[l], ih_mask);
                    }
                    for j in 0..4 {
                        let o = butterflies4([x[0][j], x[1][j], x[2][j], x[3][j]], wb, ih_mask);
                        for (jj, &oj) in o.iter().enumerate() {
                            store(dp.add(o0 + s * (j + 4 * jj) + q), oj);
                        }
                    }
                    q += L;
                }
                if q < s {
                    let (was, wbs) = twiddles16(tw_a, tw_b, m, p, inverse);
                    let mut tile = [C::zero(); 16];
                    for q in q..s {
                        let (i, o) = ((i0 + q, sm), (o0 + q, s));
                        butterfly16(src, dst, i, o, &was, wbs, inverse, &mut tile);
                    }
                }
            }
        }

        /// Table-driven odd-radix Stockham stage (`r = roots.len()`), `L`
        /// butterflies per step across `q`: the chains of
        /// [`butterfly_odd`] per lane. Extents: `src.len() == dst.len()
        /// == r·m·s`, `tw.len() == (r−1)·m`, `r ≤ MAX_RADIX`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix_odd(
            src: &[C],
            tw: &[C],
            roots: &[C],
            dst: &mut [C],
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            let r = roots.len();
            let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
            let sm = s * m;
            let conj = conj_mask(inverse);
            // The `r` roots, broadcast and conjugated once per stage.
            let mut roots_ri = [splat(0.0); MAX_RADIX];
            let mut roots_swap = [splat(0.0); MAX_RADIX];
            for x in 0..r {
                roots_ri[x] = xor(bcast(roots[x]), conj);
                roots_swap[x] = swap(roots_ri[x]);
            }
            let mut t = [splat(0.0); MAX_RADIX];
            let mut t_rest = [C::zero(); MAX_RADIX];
            for p in 0..m {
                let twp = &tw[p * (r - 1)..(p + 1) * (r - 1)];
                let i0 = s * p;
                let o0 = r * s * p;
                let mut q = 0;
                while q + L <= s {
                    for l in 0..r {
                        t[l] = load(sp.add(i0 + sm * l + q));
                    }
                    let mut acc = t[0];
                    for l in 1..r {
                        acc = add(acc, t[l]);
                    }
                    store(dp.add(o0 + q), acc);
                    for j in 1..r {
                        let mut acc = t[0];
                        let mut x = 0;
                        for l in 1..r {
                            x += j;
                            if x >= r {
                                x -= r;
                            }
                            acc = cmuladd(t[l], roots_ri[x], roots_swap[x], acc);
                        }
                        let w = xor(bcast(twp[j - 1]), conj);
                        store(dp.add(o0 + s * j + q), cmul(acc, w, swap(w)));
                    }
                    q += L;
                }
                for q in q..s {
                    let (i, o) = ((i0 + q, sm), (o0 + q, s));
                    butterfly_odd(src, dst, i, o, twp, roots, inverse, &mut t_rest);
                }
            }
        }

        /// Mirror-pair loop of the R2C unpack, `L` pairs per step: the
        /// expression tree of [`unpack_pair`] per lane, reading `z[k..]`
        /// ascending and `z[h − k..]` descending (reversed in-register).
        /// Extents: `tw.len() == z.len() == h`, `out.len() == h + 1`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn real_unpack_pairs(z: &[C], tw: &[C], out: &mut [C]) {
            let h = z.len();
            let (zp, tp, op) = (z.as_ptr(), tw.as_ptr(), out.as_mut_ptr());
            let half = splat(0.5);
            let end = h.div_ceil(2);
            let mut k = 1;
            while k + L <= end {
                // Lane `i` pairs `k + i` with `h − k − i`.
                let mirror = h - k - (L - 1);
                let zk = load(zp.add(k));
                let zc = xor(reverse(load(zp.add(mirror))), neg_im());
                let ze = mul(add(zk, zc), half);
                let d = mul(sub(zk, zc), half);
                let zo = xor(swap(d), neg_im());
                let t = cmul(load(tp.add(k)), zo, swap(zo));
                store(op.add(k), add(ze, t));
                store(op.add(mirror), reverse(xor(sub(ze, t), neg_im())));
                k += L;
            }
            for k in k..end {
                unpack_pair(z, tw, out, k, 0.5);
            }
        }

        /// Mirror-pair loop of the C2R repack; the counterpart of
        /// [`real_unpack_pairs`] over [`repack_pair`]. Extents:
        /// `spectrum.len() == h + 1`, `tw.len() == z.len() == h`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn real_repack_pairs(spectrum: &[C], tw: &[C], z: &mut [C]) {
            let h = z.len();
            let (xp, tp, zp) = (spectrum.as_ptr(), tw.as_ptr(), z.as_mut_ptr());
            let half = splat(0.5);
            let end = h.div_ceil(2);
            let mut k = 1;
            while k + L <= end {
                let mirror = h - k - (L - 1);
                let xk = load(xp.add(k));
                let xc = xor(reverse(load(xp.add(mirror))), neg_im());
                let ze = mul(add(xk, xc), half);
                let t = mul(sub(xk, xc), half);
                let zo = cmul(xor(load(tp.add(k)), neg_im()), t, swap(t));
                // Z[k] = ze + i·zo: (re − zo.im, im + zo.re) is one addsub.
                store(zp.add(k), addsub(ze, swap(zo)));
                let (zec, zoc) = (xor(ze, neg_im()), xor(zo, neg_im()));
                store(zp.add(mirror), reverse(addsub(zec, swap(zoc))));
                k += L;
            }
            for k in k..end {
                repack_pair(spectrum, tw, z, k, 0.5);
            }
        }

        /// Pointwise `a[i] *= b[i]`. Extents: `a.len() == b.len()`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn pointwise_mul(b: &[C], a: &mut [C]) {
            let n = a.len();
            let (ap, bp) = (a.as_mut_ptr(), b.as_ptr());
            let mut i = 0;
            while i + L <= n {
                let w = load(bp.add(i));
                store(ap.add(i), cmul(load(ap.add(i)), w, swap(w)));
                i += L;
            }
            for i in i..n {
                a[i] *= b[i];
            }
        }
    };
}

/// `Complex<f32>` kernels: 4 interleaved complex values per register.
pub mod ps {
    use super::*;

    type C = Complex<f32>;
    type V = __m256;
    const L: usize = 4;

    op! { fn load(p: *const C) -> V { _mm256_loadu_ps(p as *const f32) } }
    op! { fn store(p: *mut C, v: V) { _mm256_storeu_ps(p as *mut f32, v) } }
    op! { fn add(a: V, b: V) -> V { _mm256_add_ps(a, b) } }
    op! { fn sub(a: V, b: V) -> V { _mm256_sub_ps(a, b) } }
    op! { fn mul(a: V, b: V) -> V { _mm256_mul_ps(a, b) } }
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
    op! { fn cmul(a: V, w_ri: V, w_swap: V) -> V { cmul_ps(a, w_ri, w_swap) } }
    op! {
        /// `a·x + p`, the tree of `Complex::mul_add`.
        fn cmuladd(a: V, x_ri: V, x_swap: V, p: V) -> V { cmuladd_ps(a, x_ri, x_swap, p) }
    }
    op! { fn swap(v: V) -> V { swap_pairs_ps(v) } }
    op! {
        /// Sign mask over the real lanes.
        fn neg_re() -> V { _mm256_setr_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0) }
    }
    op! {
        /// Sign mask over the imaginary lanes.
        fn neg_im() -> V { _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0) }
    }
    op! {
        /// Reverse the order of the four complex values.
        fn reverse(v: V) -> V {
            _mm256_castpd_ps(_mm256_permute4x64_pd::<0b00_01_10_11>(_mm256_castps_pd(v)))
        }
    }
    op! {
        /// Store butterfly `i`'s outputs `(o0[i], o1[i])` as row `i`:
        /// `2·L` contiguous values.
        fn store_rows2(p: *mut C, o0: V, o1: V) {
            let (o0, o1) = (_mm256_castps_pd(o0), _mm256_castps_pd(o1));
            let lo = _mm256_unpacklo_pd(o0, o1);
            let hi = _mm256_unpackhi_pd(o0, o1);
            store(p, _mm256_castpd_ps(_mm256_permute2f128_pd::<0x20>(lo, hi)));
            store(p.add(L), _mm256_castpd_ps(_mm256_permute2f128_pd::<0x31>(lo, hi)));
        }
    }
    op! {
        /// Store butterfly `i`'s outputs `(o[0][i], …, o[3][i])` as row
        /// `i`: a 4×4 transpose of 64-bit pairs, `4·L` contiguous values.
        fn store_rows4(p: *mut C, o: [V; 4]) {
            let o = [
                _mm256_castps_pd(o[0]),
                _mm256_castps_pd(o[1]),
                _mm256_castps_pd(o[2]),
                _mm256_castps_pd(o[3]),
            ];
            let t0 = _mm256_unpacklo_pd(o[0], o[1]);
            let t1 = _mm256_unpackhi_pd(o[0], o[1]);
            let t2 = _mm256_unpacklo_pd(o[2], o[3]);
            let t3 = _mm256_unpackhi_pd(o[2], o[3]);
            store(p, _mm256_castpd_ps(_mm256_permute2f128_pd::<0x20>(t0, t2)));
            store(p.add(L), _mm256_castpd_ps(_mm256_permute2f128_pd::<0x20>(t1, t3)));
            store(p.add(2 * L), _mm256_castpd_ps(_mm256_permute2f128_pd::<0x31>(t0, t2)));
            store(p.add(3 * L), _mm256_castpd_ps(_mm256_permute2f128_pd::<0x31>(t1, t3)));
        }
    }

    native_kernels!();
}

/// `Complex<f64>` kernels: 2 interleaved complex values per register.
pub mod pd {
    use super::*;

    type C = Complex<f64>;
    type V = __m256d;
    const L: usize = 2;

    op! { fn load(p: *const C) -> V { _mm256_loadu_pd(p as *const f64) } }
    op! { fn store(p: *mut C, v: V) { _mm256_storeu_pd(p as *mut f64, v) } }
    op! { fn add(a: V, b: V) -> V { _mm256_add_pd(a, b) } }
    op! { fn sub(a: V, b: V) -> V { _mm256_sub_pd(a, b) } }
    op! { fn mul(a: V, b: V) -> V { _mm256_mul_pd(a, b) } }
    op! { fn xor(a: V, b: V) -> V { _mm256_xor_pd(a, b) } }
    op! {
        /// `[a.re − b.re, a.im + b.im]` per pair.
        fn addsub(a: V, b: V) -> V { _mm256_addsub_pd(a, b) }
    }
    op! { fn splat(x: f64) -> V { _mm256_set1_pd(x) } }
    op! {
        /// One complex value in both pairs.
        fn bcast(w: C) -> V { _mm256_setr_pd(w.re, w.im, w.re, w.im) }
    }
    op! { fn cmul(a: V, w_ri: V, w_swap: V) -> V { cmul_pd(a, w_ri, w_swap) } }
    op! {
        /// `a·x + p`, the tree of `Complex::mul_add`.
        fn cmuladd(a: V, x_ri: V, x_swap: V, p: V) -> V { cmuladd_pd(a, x_ri, x_swap, p) }
    }
    op! { fn swap(v: V) -> V { swap_pairs_pd(v) } }
    op! {
        /// Sign mask over the real lanes.
        fn neg_re() -> V { _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0) }
    }
    op! {
        /// Sign mask over the imaginary lanes.
        fn neg_im() -> V { _mm256_setr_pd(0.0, -0.0, 0.0, -0.0) }
    }
    op! {
        /// Exchange the two complex values.
        fn reverse(v: V) -> V { _mm256_permute2f128_pd::<0x01>(v, v) }
    }
    op! {
        /// Store butterfly `i`'s outputs `(o0[i], o1[i])` as row `i`:
        /// `2·L` contiguous values.
        fn store_rows2(p: *mut C, o0: V, o1: V) {
            store(p, _mm256_permute2f128_pd::<0x20>(o0, o1));
            store(p.add(L), _mm256_permute2f128_pd::<0x31>(o0, o1));
        }
    }
    op! {
        /// Store butterfly `i`'s outputs `(o[0][i], …, o[3][i])` as row
        /// `i`: `4·L` contiguous values.
        fn store_rows4(p: *mut C, o: [V; 4]) {
            store(p, _mm256_permute2f128_pd::<0x20>(o[0], o[1]));
            store(p.add(L), _mm256_permute2f128_pd::<0x20>(o[2], o[3]));
            store(p.add(2 * L), _mm256_permute2f128_pd::<0x31>(o[0], o[1]));
            store(p.add(3 * L), _mm256_permute2f128_pd::<0x31>(o[2], o[3]));
        }
    }

    native_kernels!();
}

/// Broadcast one complex twiddle into `[re, im]×4` and `[im, re]×4`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn bcast_pair_ps(w: Complex<f32>) -> (__m256, __m256) {
    (
        _mm256_setr_ps(w.re, w.im, w.re, w.im, w.re, w.im, w.re, w.im),
        _mm256_setr_ps(w.im, w.re, w.im, w.re, w.im, w.re, w.im, w.re),
    )
}

// ---------------------------------------------------------------------------
// 16-bit stages: widen to f32 registers, round through storage after
// every operation — exactly where the emulated scalar arithmetic rounds.
// ---------------------------------------------------------------------------

macro_rules! half_kernels {
    ($t:ty, $radix2:ident, $radix4:ident, $pmul:ident, $widen8:ident, $narrow8:ident,
     $round8:ident) => {
        /// Radix-2 stage over 4 widened 16-bit complex values per step.
        /// Rounding points match the scalar emulated arithmetic:
        /// `a+b` and `a−b` round once each; the twiddle multiply rounds
        /// its inner product, then its FMA result.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn $radix2(
            src: &[Complex<$t>],
            tw: &[Complex<$t>],
            dst: &mut [Complex<$t>],
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            let sm = s * m;
            let sp = src.as_ptr() as *const u16;
            let dp = dst.as_mut_ptr() as *mut u16;
            for p in 0..m {
                let w = twiddle2(tw, p, inverse);
                // Widening to f32 is exact; broadcast the widened pair.
                let (w_ri, w_swap) = bcast_pair_ps(Complex::new(w.re.to_f32(), w.im.to_f32()));
                let i0 = s * p;
                let o0 = 2 * s * p;
                let mut q = 0;
                while q + 4 <= s {
                    let a = $widen8(_mm_loadu_si128(sp.add(2 * (i0 + q)) as *const __m128i));
                    let b = $widen8(_mm_loadu_si128(sp.add(2 * (i0 + sm + q)) as *const __m128i));
                    let sum = $narrow8(_mm256_add_ps(a, b));
                    _mm_storeu_si128(dp.add(2 * (o0 + q)) as *mut __m128i, sum);
                    let d = $round8(_mm256_sub_ps(a, b));
                    let inner = neg_even_ps($round8(_mm256_mul_ps(dup_im_ps(d), w_swap)));
                    let prod = $narrow8(_mm256_fmadd_ps(dup_re_ps(d), w_ri, inner));
                    _mm_storeu_si128(dp.add(2 * (o0 + s + q)) as *mut __m128i, prod);
                    q += 4;
                }
                for q in q..s {
                    butterfly2(src, dst, (i0 + q, sm), (o0 + q, s), w);
                }
            }
        }

        /// Radix-4 stage over 4 widened 16-bit complex values per step.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn $radix4(
            src: &[Complex<$t>],
            tw: &[Complex<$t>],
            dst: &mut [Complex<$t>],
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            let sm = s * m;
            let sp = src.as_ptr() as *const u16;
            let dp = dst.as_mut_ptr() as *mut u16;
            for p in 0..m {
                let ws = twiddles4(tw, m, p, inverse);
                let [w1, w2, w3] = ws;
                let (w1_ri, w1_sw) = bcast_pair_ps(Complex::new(w1.re.to_f32(), w1.im.to_f32()));
                let (w2_ri, w2_sw) = bcast_pair_ps(Complex::new(w2.re.to_f32(), w2.im.to_f32()));
                let (w3_ri, w3_sw) = bcast_pair_ps(Complex::new(w3.re.to_f32(), w3.im.to_f32()));
                let i0 = s * p;
                let o0 = 4 * s * p;
                let mut q = 0;
                while q + 4 <= s {
                    let t0 = $widen8(_mm_loadu_si128(sp.add(2 * (i0 + q)) as *const __m128i));
                    let t1 = $widen8(_mm_loadu_si128(sp.add(2 * (i0 + sm + q)) as *const __m128i));
                    let t2 =
                        $widen8(_mm_loadu_si128(sp.add(2 * (i0 + 2 * sm + q)) as *const __m128i));
                    let t3 =
                        $widen8(_mm_loadu_si128(sp.add(2 * (i0 + 3 * sm + q)) as *const __m128i));
                    let e = $round8(_mm256_add_ps(t0, t2));
                    let f = $round8(_mm256_sub_ps(t0, t2));
                    let g = $round8(_mm256_add_ps(t1, t3));
                    let h = $round8(_mm256_sub_ps(t1, t3));
                    // Exact data movement + sign flip on already-rounded
                    // values — no further rounding, as in the scalar code.
                    let ih = if inverse {
                        neg_even_ps(swap_pairs_ps(h))
                    } else {
                        neg_odd_ps(swap_pairs_ps(h))
                    };
                    let sum = $narrow8(_mm256_add_ps(e, g));
                    _mm_storeu_si128(dp.add(2 * (o0 + q)) as *mut __m128i, sum);
                    let x1 = $round8(_mm256_add_ps(f, ih));
                    let inner1 = neg_even_ps($round8(_mm256_mul_ps(dup_im_ps(x1), w1_sw)));
                    let o1 = $narrow8(_mm256_fmadd_ps(dup_re_ps(x1), w1_ri, inner1));
                    _mm_storeu_si128(dp.add(2 * (o0 + s + q)) as *mut __m128i, o1);
                    let x2 = $round8(_mm256_sub_ps(e, g));
                    let inner2 = neg_even_ps($round8(_mm256_mul_ps(dup_im_ps(x2), w2_sw)));
                    let o2 = $narrow8(_mm256_fmadd_ps(dup_re_ps(x2), w2_ri, inner2));
                    _mm_storeu_si128(dp.add(2 * (o0 + 2 * s + q)) as *mut __m128i, o2);
                    let x3 = $round8(_mm256_sub_ps(f, ih));
                    let inner3 = neg_even_ps($round8(_mm256_mul_ps(dup_im_ps(x3), w3_sw)));
                    let o3 = $narrow8(_mm256_fmadd_ps(dup_re_ps(x3), w3_ri, inner3));
                    _mm_storeu_si128(dp.add(2 * (o0 + 3 * s + q)) as *mut __m128i, o3);
                    q += 4;
                }
                for q in q..s {
                    butterfly4(src, dst, (i0 + q, sm), (o0 + q, s), ws, inverse);
                }
            }
        }

        /// Pointwise `a[i] *= b[i]` over 16-bit complex values.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn $pmul(b: &[Complex<$t>], a: &mut [Complex<$t>]) {
            let n = a.len();
            let ap = a.as_mut_ptr() as *mut u16;
            let bp = b.as_ptr() as *const u16;
            let mut i = 0;
            while i + 4 <= n {
                let v = $widen8(_mm_loadu_si128(ap.add(2 * i) as *const __m128i));
                let w = $widen8(_mm_loadu_si128(bp.add(2 * i) as *const __m128i));
                let inner = neg_even_ps($round8(_mm256_mul_ps(dup_im_ps(v), swap_pairs_ps(w))));
                let out = $narrow8(_mm256_fmadd_ps(dup_re_ps(v), w, inner));
                _mm_storeu_si128(ap.add(2 * i) as *mut __m128i, out);
                i += 4;
            }
            for i in i..n {
                a[i] *= b[i];
            }
        }
    };
}

half_kernels!(f16, radix2_f16, radix4_f16, pointwise_mul_f16, widen8_f16, narrow8_f16, round8_f16);
half_kernels!(
    bf16,
    radix2_bf16,
    radix4_bf16,
    pointwise_mul_bf16,
    widen8_bf16,
    narrow8_bf16,
    round8_bf16
);
