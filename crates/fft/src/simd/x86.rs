//! AVX2+FMA kernels. Bit-identical to the scalar passes they shadow
//! (`crate::iterative::{butterfly2, butterfly4, butterfly16, butterfly_odd}`,
//! `crate::real::{unpack_pair, repack_pair}`);
//! see the module doc of [`super`] for the identity argument. The
//! register vocabulary (`load`, `add`, `bcast`, `cmul`, `cmuladd`,
//! `swap`, the sign masks, …) and the 16-bit conversions are
//! `fftmatvec_numeric::simd::x86`'s; only the three lane shuffles no
//! other kernel needs (`reverse`, `store_rows2`, `store_rows4`) are
//! defined here.
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
    narrow8_bf16, narrow8_f16, round8_bf16, round8_f16, widen8_bf16, widen8_f16,
};
use fftmatvec_numeric::{Complex, Real};

use crate::iterative::{
    butterfly16, butterfly2, butterfly4, butterfly_odd, twiddle2, twiddles16, twiddles4,
};
use crate::padded::{PaddedSeries, UnpaddedSeries};
use crate::plan::MAX_RADIX;
use crate::real::{repack_pair, unpack_pair};

// ---------------------------------------------------------------------------
// f32 / f64 kernels (native lanes, no storage rounding)
// ---------------------------------------------------------------------------
//
// The two precisions share one kernel source, `native_kernels!`, written
// against the per-precision register vocabulary of
// `fftmatvec_numeric::simd::x86::{ps, pd}` (4 `Complex<f32>` resp. 2
// `Complex<f64>` per register), glob-imported into the modules below.

/// One register helper: `#[inline]` so it folds into the kernels (an
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
/// (one register of `LANES` interleaved complex values), `load`/`store`,
/// `add`/`sub`/`mul`/`xor`/`addsub`, `splat`, `bcast`, `cmul`, `cmuladd`,
/// `swap`, `neg_re`/`neg_im`, `conj_mask` (conjugates the twiddles of the
/// inverse transform), and this module's `reverse`,
/// `store_rows2`/`store_rows4`.
macro_rules! native_kernels {
    () => {
        /// Radix-2 Stockham stage, `LANES` butterflies per step: lanes across
        /// `q` for `s ≥ LANES`, across `p` for the first stage (`s == 1`,
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
                while p + LANES <= m {
                    let a = load(sp.add(p));
                    let b = load(sp.add(m + p));
                    let w = xor(load(tp.add(p)), conj);
                    store_rows2(dp.add(2 * p), add(a, b), cmul(sub(a, b), w, swap(w)));
                    p += LANES;
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
                while q + LANES <= s {
                    let a = load(sp.add(i0 + q));
                    let b = load(sp.add(i0 + sm + q));
                    store(dp.add(o0 + q), add(a, b));
                    store(dp.add(o0 + s + q), cmul(sub(a, b), w_ri, w_swap));
                    q += LANES;
                }
                for q in q..s {
                    butterfly2(src, dst, (i0 + q, sm), (o0 + q, s), w);
                }
            }
        }

        op! {
            /// `LANES` radix-4 butterflies on registers: the expression tree
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
                while p + LANES <= m {
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
                    p += LANES;
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
                while q + LANES <= s {
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
                    q += LANES;
                }
                for q in q..s {
                    butterfly4(src, dst, (i0 + q, sm), (o0 + q, s), ws, inverse);
                }
            }
        }

        /// Radix-16 pass — the radix-4 stages at strides `s` and `4s` in
        /// one trip through memory — `LANES` butterflies per step across `q`
        /// (`s ≥ LANES`): [`butterflies4`] twice per lane, the tree of
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
                while q + LANES <= s {
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
                    q += LANES;
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

        /// Table-driven odd-radix Stockham stage (`r = roots.len()`), `LANES`
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
                while q + LANES <= s {
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
                    q += LANES;
                }
                for q in q..s {
                    let (i, o) = ((i0 + q, sm), (o0 + q, s));
                    butterfly_odd(src, dst, i, o, twp, roots, inverse, &mut t_rest);
                }
            }
        }

        /// First stage of a forward transform over a padded series, radix 4
        /// (`nt = 4m`), `LANES` butterflies per step across `p` as in
        /// [`radix4`]'s first stage: operands `l < 2` load (and round) their
        /// samples straight from `src`, operands `l ≥ 2` are the
        /// embedding's `+0` in a register, so the tree of [`butterfly4`]
        /// runs without their loads. Extents: `dst.len() == 4·m`,
        /// `tw.len() == 3·m`, `src.nt() == 4·m`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix4_first_padded<P: Real>(
            tw: &[C],
            dst: &mut [C],
            src: &PaddedSeries<'_, P>,
            m: usize,
        ) {
            let (tp, dp) = (tw.as_ptr(), dst.as_mut_ptr());
            let zero = splat(0.0);
            let mut p = 0;
            while p + LANES <= m {
                let t = [load_padded(src, p), load_padded(src, m + p), zero, zero];
                let w = [load(tp.add(p)), load(tp.add(m + p)), load(tp.add(2 * m + p))];
                store_rows4(dp.add(4 * p), butterflies4(t, w, neg_im()));
                p += LANES;
            }
            let mut t = [C::zero(); 4];
            for p in p..m {
                t[0] = src.packed(p);
                t[1] = src.packed(m + p);
                butterfly4(&t, dst, (0, 1), (4 * p, 1), twiddles4(tw, m, p, false), false);
            }
        }

        /// First stage of a forward transform over a padded series, radix 2
        /// (`nt = 2m`): operand 0 loads, operand 1 is the embedding's `+0`;
        /// the counterpart of [`radix4_first_padded`] over [`butterfly2`].
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix2_first_padded<P: Real>(
            tw: &[C],
            dst: &mut [C],
            src: &PaddedSeries<'_, P>,
            m: usize,
        ) {
            let (tp, dp) = (tw.as_ptr(), dst.as_mut_ptr());
            let zero = splat(0.0);
            let mut p = 0;
            while p + LANES <= m {
                let a = load_padded(src, p);
                let w = load(tp.add(p));
                store_rows2(dp.add(2 * p), add(a, zero), cmul(sub(a, zero), w, swap(w)));
                p += LANES;
            }
            let mut t = [C::zero(); 2];
            for p in p..m {
                t[0] = src.packed(p);
                butterfly2(&t, dst, (0, 1), (2 * p, 1), twiddle2(tw, p, false));
            }
        }

        /// Last stage of an inverse transform into an unpadded series,
        /// radix 4 at stride `s` (`nt = 4s`, `m = 1`), `LANES` butterflies
        /// per step across `q`: outputs `j < 2` (the kept samples) are
        /// scaled by `1/nt` and stored through `sink`; the tree of
        /// [`butterfly4`] for outputs `j ≥ 2` is dead and never computed.
        /// Extents: `src.len() == 4·s`, `tw.len() == 3`, `sink.nt() == 4·s`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix4_last_unpadded<Q: Real>(
            src: &[C],
            tw: &[C],
            sink: &mut UnpaddedSeries<Q>,
            s: usize,
        ) {
            let sp = src.as_ptr();
            let ws = twiddles4(tw, 1, 0, true);
            let w = [bcast(ws[0]), bcast(ws[1]), bcast(ws[2])];
            let scale = F::from_usize(4 * s).recip();
            let sc = splat(scale);
            let mut q = 0;
            while q + LANES <= s {
                let t = [
                    load(sp.add(q)),
                    load(sp.add(s + q)),
                    load(sp.add(2 * s + q)),
                    load(sp.add(3 * s + q)),
                ];
                let o = butterflies4(t, w, neg_re());
                put_lanes(sink, q, mul(o[0], sc));
                put_lanes(sink, s + q, mul(o[1], sc));
                q += LANES;
            }
            let mut tile = [C::zero(); 4];
            for q in q..s {
                butterfly4(src, &mut tile, (q, s), (0, 1), ws, true);
                sink.put_packed(q, tile[0].scale(scale));
                sink.put_packed(s + q, tile[1].scale(scale));
            }
        }

        /// Last stage of an inverse transform into an unpadded series,
        /// radix 2 at stride `s` (`nt = 2s`): output 0, `a + b`, only; the
        /// counterpart of [`radix4_last_unpadded`] over [`butterfly2`].
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix2_last_unpadded<Q: Real>(
            src: &[C],
            sink: &mut UnpaddedSeries<Q>,
            s: usize,
        ) {
            let sp = src.as_ptr();
            let scale = F::from_usize(2 * s).recip();
            let sc = splat(scale);
            let mut q = 0;
            while q + LANES <= s {
                put_lanes(sink, q, mul(add(load(sp.add(q)), load(sp.add(s + q))), sc));
                q += LANES;
            }
            for q in q..s {
                sink.put_packed(q, (src[q] + src[s + q]).scale(scale));
            }
        }

        /// Last pass of an inverse transform into an unpadded series, radix
        /// 16 (stages at strides `s` and `4s`, `nt = 16s`), `LANES`
        /// butterflies per step across `q` as in [`radix16`]: second-layer
        /// outputs `j' < 2` (the kept samples) are scaled by `1/nt` and
        /// stored through `sink`; the rest are never computed. Extents:
        /// `src.len() == 16·s`, `tw_a.len() == 12`, `tw_b.len() == 3`,
        /// `sink.nt() == 16·s`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix16_last_unpadded<Q: Real>(
            src: &[C],
            tw_a: &[C],
            tw_b: &[C],
            sink: &mut UnpaddedSeries<Q>,
            s: usize,
        ) {
            let sp = src.as_ptr();
            let ih_mask = neg_re();
            let (was, wbs) = twiddles16(tw_a, tw_b, 1, 0, true);
            let mut wa = [[splat(0.0); 3]; 4];
            for (wl, wsl) in wa.iter_mut().zip(&was) {
                for (w, &ws) in wl.iter_mut().zip(wsl) {
                    *w = bcast(ws);
                }
            }
            let wb = [bcast(wbs[0]), bcast(wbs[1]), bcast(wbs[2])];
            let scale = F::from_usize(16 * s).recip();
            let sc = splat(scale);
            let mut q = 0;
            while q + LANES <= s {
                let mut x = [[splat(0.0); 4]; 4];
                for l in 0..4 {
                    let t = [
                        load(sp.add(s * l + q)),
                        load(sp.add(s * (l + 4) + q)),
                        load(sp.add(s * (l + 8) + q)),
                        load(sp.add(s * (l + 12) + q)),
                    ];
                    x[l] = butterflies4(t, wa[l], ih_mask);
                }
                for j in 0..4 {
                    let o = butterflies4([x[0][j], x[1][j], x[2][j], x[3][j]], wb, ih_mask);
                    put_lanes(sink, s * j + q, mul(o[0], sc));
                    put_lanes(sink, s * (j + 4) + q, mul(o[1], sc));
                }
                q += LANES;
            }
            let (mut tile, mut t) = ([C::zero(); 16], [C::zero(); 16]);
            for q in q..s {
                butterfly16(src, &mut tile, (q, s), (0, 1), &was, wbs, true, &mut t);
                for (j, v) in tile[..8].iter().enumerate() {
                    sink.put_packed(q + s * j, v.scale(scale));
                }
            }
        }

        /// Mirror-pair loop of the R2C unpack, `LANES` pairs per step: the
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
            while k + LANES <= end {
                // Lane `i` pairs `k + i` with `h − k − i`.
                let mirror = h - k - (LANES - 1);
                let zk = load(zp.add(k));
                let zc = xor(reverse(load(zp.add(mirror))), neg_im());
                let ze = mul(add(zk, zc), half);
                let d = mul(sub(zk, zc), half);
                let zo = xor(swap(d), neg_im());
                let t = cmul(load(tp.add(k)), zo, swap(zo));
                store(op.add(k), add(ze, t));
                store(op.add(mirror), reverse(xor(sub(ze, t), neg_im())));
                k += LANES;
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
            while k + LANES <= end {
                let mirror = h - k - (LANES - 1);
                let xk = load(xp.add(k));
                let xc = xor(reverse(load(xp.add(mirror))), neg_im());
                let ze = mul(add(xk, xc), half);
                let t = mul(sub(xk, xc), half);
                let zo = cmul(xor(load(tp.add(k)), neg_im()), t, swap(t));
                // Z[k] = ze + i·zo: (re − zo.im, im + zo.re) is one addsub.
                store(zp.add(k), addsub(ze, swap(zo)));
                let (zec, zoc) = (xor(ze, neg_im()), xor(zo, neg_im()));
                store(zp.add(mirror), reverse(addsub(zec, swap(zoc))));
                k += LANES;
            }
            for k in k..end {
                repack_pair(spectrum, tw, z, k, 0.5);
            }
        }
    };
}

// ---------------------------------------------------------------------------
// 16-bit stages: widen to f32 registers, round through storage after
// every operation — exactly where the emulated scalar arithmetic rounds.
// Instantiated in `ps`, over its vocabulary.
// ---------------------------------------------------------------------------

macro_rules! half_kernels {
    ($t:ty, $radix2:ident, $radix4:ident, $widen8:ident, $narrow8:ident, $round8:ident) => {
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
                let (w_ri, w_swap) = bcast_pair(Complex::new(w.re.to_f32(), w.im.to_f32()));
                let i0 = s * p;
                let o0 = 2 * s * p;
                let mut q = 0;
                while q + 4 <= s {
                    let a = $widen8(_mm_loadu_si128(sp.add(2 * (i0 + q)) as *const __m128i));
                    let b = $widen8(_mm_loadu_si128(sp.add(2 * (i0 + sm + q)) as *const __m128i));
                    let sum = $narrow8(add(a, b));
                    _mm_storeu_si128(dp.add(2 * (o0 + q)) as *mut __m128i, sum);
                    let d = $round8(sub(a, b));
                    let inner = xor($round8(mul(dup_im(d), w_swap)), neg_re());
                    let prod = $narrow8(fma(dup_re(d), w_ri, inner));
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
                let (w1_ri, w1_sw) = bcast_pair(Complex::new(w1.re.to_f32(), w1.im.to_f32()));
                let (w2_ri, w2_sw) = bcast_pair(Complex::new(w2.re.to_f32(), w2.im.to_f32()));
                let (w3_ri, w3_sw) = bcast_pair(Complex::new(w3.re.to_f32(), w3.im.to_f32()));
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
                    let e = $round8(add(t0, t2));
                    let f = $round8(sub(t0, t2));
                    let g = $round8(add(t1, t3));
                    let h = $round8(sub(t1, t3));
                    // Exact data movement + sign flip on already-rounded
                    // values — no further rounding, as in the scalar code.
                    let ih = xor(swap(h), if inverse { neg_re() } else { neg_im() });
                    let sum = $narrow8(add(e, g));
                    _mm_storeu_si128(dp.add(2 * (o0 + q)) as *mut __m128i, sum);
                    let x1 = $round8(add(f, ih));
                    let inner1 = xor($round8(mul(dup_im(x1), w1_sw)), neg_re());
                    let o1 = $narrow8(fma(dup_re(x1), w1_ri, inner1));
                    _mm_storeu_si128(dp.add(2 * (o0 + s + q)) as *mut __m128i, o1);
                    let x2 = $round8(sub(e, g));
                    let inner2 = xor($round8(mul(dup_im(x2), w2_sw)), neg_re());
                    let o2 = $narrow8(fma(dup_re(x2), w2_ri, inner2));
                    _mm_storeu_si128(dp.add(2 * (o0 + 2 * s + q)) as *mut __m128i, o2);
                    let x3 = $round8(sub(f, ih));
                    let inner3 = xor($round8(mul(dup_im(x3), w3_sw)), neg_re());
                    let o3 = $narrow8(fma(dup_re(x3), w3_ri, inner3));
                    _mm_storeu_si128(dp.add(2 * (o0 + 3 * s + q)) as *mut __m128i, o3);
                    q += 4;
                }
                for q in q..s {
                    butterfly4(src, dst, (i0 + q, sm), (o0 + q, s), ws, inverse);
                }
            }
        }
    };
}

/// `Complex<f32>` kernels: 4 interleaved complex values per register,
/// and the 16-bit stages, which widen into the same registers.
pub mod ps {
    use super::*;
    use fftmatvec_numeric::simd::x86::ps::*;

    op! {
        /// Reverse the order of the four complex values.
        fn reverse(v: V) -> V {
            _mm256_castpd_ps(_mm256_permute4x64_pd::<0b00_01_10_11>(_mm256_castps_pd(v)))
        }
    }
    op! {
        /// Store butterfly `i`'s outputs `(o0[i], o1[i])` as row `i`:
        /// `2·LANES` contiguous values.
        fn store_rows2(p: *mut C, o0: V, o1: V) {
            let (o0, o1) = (_mm256_castps_pd(o0), _mm256_castps_pd(o1));
            let lo = _mm256_unpacklo_pd(o0, o1);
            let hi = _mm256_unpackhi_pd(o0, o1);
            store(p, _mm256_castpd_ps(_mm256_permute2f128_pd::<0x20>(lo, hi)));
            store(p.add(LANES), _mm256_castpd_ps(_mm256_permute2f128_pd::<0x31>(lo, hi)));
        }
    }
    op! {
        /// Store butterfly `i`'s outputs `(o[0][i], …, o[3][i])` as row
        /// `i`: a 4×4 transpose of 64-bit pairs, `4·LANES` contiguous values.
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
            store(p.add(LANES), _mm256_castpd_ps(_mm256_permute2f128_pd::<0x20>(t1, t3)));
            store(p.add(2 * LANES), _mm256_castpd_ps(_mm256_permute2f128_pd::<0x31>(t0, t2)));
            store(p.add(3 * LANES), _mm256_castpd_ps(_mm256_permute2f128_pd::<0x31>(t1, t3)));
        }
    }

    /// The real type of one lane.
    type F = f32;

    /// Packed values `z[j..j + LANES]` of a padded series — samples `2j`
    /// to `2j + 7` — each rounded through the pad tier, then into `f32`
    /// (`cvtpd_ps` rounds to nearest even, as `as f32` does; after an f32
    /// pad tier it is exact). Contiguous samples through a wide pad tier
    /// are two vector loads; anything else is gathered. The caller
    /// guarantees `2j + 8 ≤ src.nt()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_padded<P: Real>(src: &PaddedSeries<'_, P>, j: usize) -> V {
        let t = 2 * j;
        let (lo, hi) = if src.stride() == 1 && P::BYTES >= 4 {
            (_mm256_loadu_pd(src.at(t)), _mm256_loadu_pd(src.at(t + 4)))
        } else {
            let x = |i: usize| src.sample_unchecked::<f64>(t + i);
            (_mm256_setr_pd(x(0), x(1), x(2), x(3)), _mm256_setr_pd(x(4), x(5), x(6), x(7)))
        };
        _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo))
    }

    /// Store the `LANES` complex values of `v` — samples `2o` to `2o + 7`
    /// — through `sink`: two vector stores of the exactly widened lanes
    /// when they are contiguous and the route is the identity, one routed
    /// store per sample otherwise. The caller guarantees `2o + 8 ≤
    /// sink.nt()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn put_lanes<Q: Real>(sink: &mut UnpaddedSeries<Q>, o: usize, v: V) {
        if sink.stride() == 1 && Q::BYTES == 8 {
            _mm256_storeu_pd(sink.at(2 * o), _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
            _mm256_storeu_pd(sink.at(2 * o + 4), _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)));
            return;
        }
        let lanes: [f32; 8] = core::mem::transmute(v);
        for (i, &x) in lanes.iter().enumerate() {
            sink.put_unchecked(2 * o + i, x);
        }
    }

    op! {
        /// A widened 16-bit twiddle as `[re, im]` and `[im, re]` pairs.
        fn bcast_pair(w: C) -> (V, V) {
            let w_ri = bcast(w);
            (w_ri, swap(w_ri))
        }
    }

    native_kernels!();
    half_kernels!(f16, radix2_f16, radix4_f16, widen8_f16, narrow8_f16, round8_f16);
    half_kernels!(bf16, radix2_bf16, radix4_bf16, widen8_bf16, narrow8_bf16, round8_bf16);
}

/// `Complex<f64>` kernels: 2 interleaved complex values per register.
pub mod pd {
    use super::*;
    use fftmatvec_numeric::simd::x86::pd::*;

    /// The real type of one lane.
    type F = f64;

    /// Packed values `z[j..j + LANES]` of a padded series — samples `2j`
    /// to `2j + 3` — each rounded through the pad tier: one vector load
    /// (and, through an f32 pad tier, the round trip `cvtpd_ps` /
    /// `cvtps_pd`, which is `as f32 as f64`) when the samples are
    /// contiguous and the tier is wide, a gather otherwise. The caller
    /// guarantees `2j + 4 ≤ src.nt()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_padded<P: Real>(src: &PaddedSeries<'_, P>, j: usize) -> V {
        let t = 2 * j;
        if src.stride() == 1 && P::BYTES >= 4 {
            let v = _mm256_loadu_pd(src.at(t));
            return if P::BYTES == 8 { v } else { _mm256_cvtps_pd(_mm256_cvtpd_ps(v)) };
        }
        let x = |i: usize| src.sample_unchecked::<f64>(t + i);
        _mm256_setr_pd(x(0), x(1), x(2), x(3))
    }

    /// Store the `LANES` complex values of `v` — samples `2o` to `2o + 3`
    /// — through `sink`: one vector store (after the same f32 round trip
    /// through an f32 route) when they are contiguous and the route is
    /// wide, one routed store per sample otherwise. The caller guarantees
    /// `2o + 4 ≤ sink.nt()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn put_lanes<Q: Real>(sink: &mut UnpaddedSeries<Q>, o: usize, v: V) {
        if sink.stride() == 1 && Q::BYTES >= 4 {
            let v = if Q::BYTES == 8 { v } else { _mm256_cvtps_pd(_mm256_cvtpd_ps(v)) };
            _mm256_storeu_pd(sink.at(2 * o), v);
            return;
        }
        let lanes: [f64; 4] = core::mem::transmute(v);
        for (i, &x) in lanes.iter().enumerate() {
            sink.put_unchecked(2 * o + i, x);
        }
    }

    op! {
        /// Exchange the two complex values.
        fn reverse(v: V) -> V { _mm256_permute2f128_pd::<0x01>(v, v) }
    }
    op! {
        /// Store butterfly `i`'s outputs `(o0[i], o1[i])` as row `i`:
        /// `2·LANES` contiguous values.
        fn store_rows2(p: *mut C, o0: V, o1: V) {
            store(p, _mm256_permute2f128_pd::<0x20>(o0, o1));
            store(p.add(LANES), _mm256_permute2f128_pd::<0x31>(o0, o1));
        }
    }
    op! {
        /// Store butterfly `i`'s outputs `(o[0][i], …, o[3][i])` as row
        /// `i`: `4·LANES` contiguous values.
        fn store_rows4(p: *mut C, o: [V; 4]) {
            store(p, _mm256_permute2f128_pd::<0x20>(o[0], o[1]));
            store(p.add(LANES), _mm256_permute2f128_pd::<0x20>(o[2], o[3]));
            store(p.add(2 * LANES), _mm256_permute2f128_pd::<0x31>(o[0], o[1]));
            store(p.add(3 * LANES), _mm256_permute2f128_pd::<0x31>(o[2], o[3]));
        }
    }

    native_kernels!();
}
