//! AVX2+FMA kernels. Bit-identical to the scalar passes they shadow
//! (`crate::iterative::{butterfly2, butterfly4, butterfly16, butterfly_odd}`,
//! `crate::real::{unpack_pair, repack_pair}`);
//! see the module doc of [`super`] for the identity argument. The
//! register vocabulary (`load`, `add`, `bcast`, `cmul`, `cmuladd`,
//! `swap`, the sign masks, …) and the 16-bit conversions are
//! `fftmatvec_numeric::simd::x86`'s; only what no other kernel needs is
//! defined here: three lane shuffles (`reverse`, `store_rows2`,
//! `store_rows4`), the padded and unpadded series' register load and
//! store (`load_padded`, `put_lanes`), and for the series-in-lanes kernels
//! the real-register load / store, the TOSI row load / store through a
//! tier (`load_row`, `store_row`), the rows' transposing load / store
//! through a tier (`load_pairs`, `store_pairs`, over the four-row
//! `load_pairs4` / `store_pairs4`, and `gather_rows` / `scatter_rows`
//! for a lone sample), the complex TOSI row's split into and join from
//! real and imaginary planes (`deinterleave`, `interleave`) and the lane
//! transpose.
//!
//! The radix-2/4/16 stage bodies of both executors read a
//! [`Source`](crate::padded::Source) and write a
//! [`Sink`](crate::padded::Sink) through one pair of helpers each
//! (`read` / `write`, `zread` / `zwrite`), told at every operand and
//! output whether it lies in the upper half of its stage: there a padded
//! series yields a `+0` register, never loaded, and an unpadded series
//! drops the output, so the tree that computed it is dead code. Padded
//! and unpadded rows, whose head or keep may pass the half, decide per
//! packed value instead: past the head a `+0` register, never loaded.
//!
//! # Safety
//!
//! Uniform contract for every function: the caller must guarantee the
//! host supports AVX2 and FMA, and the extents each kernel names — both
//! are established by the dispatcher in [`super`] (`fma_active`, and an
//! `assert!` on the extents before every call). Slices are accessed
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
use crate::padded::{
    Operands, Outputs, PaddedRows, PaddedSeries, Sink, Source, UnpaddedRows, UnpaddedSeries,
};
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

/// The kernels, over the vocabulary in scope: `F` (the real type), `C`
/// (the complex type), `V` (one register of `LANES` interleaved complex
/// values), `load`/`store`, `add`/`sub`/`mul`/`xor`/`addsub`, `splat`,
/// `bcast`, `cmul`, `cmuladd`, `swap`, `neg_re`/`neg_im`, `conj_mask`
/// (conjugates the twiddles of the inverse transform), and this module's
/// `reverse`, `store_rows2`/`store_rows4`, `load_padded`, `put_lanes`.
macro_rules! native_kernels {
    () => {
        /// Operands `i..i + LANES` of a stage reading `src`; `upper` says
        /// they lie in the upper half of the stage's input (operand rows
        /// `l ≥ r/2`), which a padded series holds as the embedding's `+0`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn read<S: Source<F> + ?Sized>(src: &S, upper: bool, i: usize) -> V {
            match src.operands() {
                Operands::Slice(x) => load(x.as_ptr().add(i)),
                Operands::Padded(_) if upper => splat(0.0),
                Operands::Padded(x) => load_padded(&x, i),
                Operands::Rows(_) => unreachable!("padded rows are read in the lanes"),
                Operands::Column(_) => unreachable!("a complex column is read in the lanes"),
            }
        }

        /// Store outputs `o..o + LANES` of a stage writing `dst`; `upper`
        /// says they lie in the upper half of a last stage's output (rows
        /// `j ≥ r/2`), which an unpadded series drops. It scales the kept
        /// ones by `sc`, `1/nt` in every lane, after the butterfly.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn write<D: Sink<F> + ?Sized>(dst: &mut D, upper: bool, o: usize, v: V, sc: V) {
            match dst.outputs() {
                Outputs::Slice(x) => store(x.as_mut_ptr().add(o), v),
                Outputs::Unpadded(_) if upper => {}
                Outputs::Unpadded(x) => put_lanes(x, o, mul(v, sc)),
                Outputs::Rows(_) => unreachable!("unpadded rows are written in the lanes"),
                Outputs::Column(_) => unreachable!("a complex column is written in the lanes"),
            }
        }

        /// Does a radix-2/4 stage run its lanes across butterflies `p` (a
        /// first stage, `s = 1`) rather than across `q`? A padded source is
        /// read by a first stage and an unpadded sink written by a last one
        /// (`m = 1`), so for them the answer is a constant and the other
        /// branch is not compiled.
        #[inline(always)]
        fn across_p<S: Source<F> + ?Sized, D: Sink<F> + ?Sized>(
            src: &S,
            dst: &mut D,
            s: usize,
        ) -> bool {
            match (src.operands(), dst.outputs()) {
                (Operands::Padded(_), _) => true,
                (_, Outputs::Unpadded(_)) => false,
                _ => s == 1,
            }
        }

        /// Where a first stage's lanes across butterflies store from output
        /// `o`: a slice, since an unpadded series runs lanes across `q`
        /// (`across_p`).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn rows<D: Sink<F> + ?Sized>(dst: &mut D, o: usize) -> *mut C {
            match dst.outputs() {
                Outputs::Slice(x) => x.as_mut_ptr().add(o),
                _ => unreachable!("an unpadded series runs lanes across q"),
            }
        }

        /// Radix-2 Stockham stage, `LANES` butterflies per step: lanes across
        /// `q` for `s ≥ LANES`, across `p` for the first stage (`s == 1`,
        /// outputs transposed in-register). Extents: `src.len() ==
        /// dst.len() == 2·m·s`, `tw.len() == m`, `s == 1` from a padded
        /// series, `m == 1` into an unpadded one.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix2<S: Source<F> + ?Sized, D: Sink<F> + ?Sized>(
            src: &S,
            tw: &[C],
            dst: &mut D,
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            let tp = tw.as_ptr();
            let sm = s * m;
            let sc = splat(F::from_usize(2 * sm).recip());
            if across_p(src, dst, s) {
                let conj = conj_mask(inverse);
                let mut p = 0;
                while p + LANES <= m {
                    let (a, b) = (read(src, false, p), read(src, true, m + p));
                    let w = xor(load(tp.add(p)), conj);
                    store_rows2(rows(dst, 2 * p), add(a, b), cmul(sub(a, b), w, swap(w)));
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
                    let (a, b) = (read(src, false, i0 + q), read(src, true, i0 + sm + q));
                    write(dst, false, o0 + q, add(a, b), sc);
                    write(dst, true, o0 + s + q, cmul(sub(a, b), w_ri, w_swap), sc);
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
        /// Extents: `src.len() == dst.len() == 4·m·s`, `tw.len() == 3·m`,
        /// `s == 1` from a padded series, `m == 1` into an unpadded one.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix4<S: Source<F> + ?Sized, D: Sink<F> + ?Sized>(
            src: &S,
            tw: &[C],
            dst: &mut D,
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            let tp = tw.as_ptr();
            let sm = s * m;
            let sc = splat(F::from_usize(4 * sm).recip());
            let ih_mask = if inverse { neg_re() } else { neg_im() };
            if across_p(src, dst, s) {
                let conj = conj_mask(inverse);
                let mut p = 0;
                while p + LANES <= m {
                    let t = [
                        read(src, false, p),
                        read(src, false, m + p),
                        read(src, true, 2 * m + p),
                        read(src, true, 3 * m + p),
                    ];
                    let w = [
                        xor(load(tp.add(p)), conj),
                        xor(load(tp.add(m + p)), conj),
                        xor(load(tp.add(2 * m + p)), conj),
                    ];
                    store_rows4(rows(dst, 4 * p), butterflies4(t, w, ih_mask));
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
                        read(src, false, i0 + q),
                        read(src, false, i0 + sm + q),
                        read(src, true, i0 + 2 * sm + q),
                        read(src, true, i0 + 3 * sm + q),
                    ];
                    let o = butterflies4(t, w, ih_mask);
                    write(dst, false, o0 + q, o[0], sc);
                    write(dst, false, o0 + s + q, o[1], sc);
                    write(dst, true, o0 + 2 * s + q, o[2], sc);
                    write(dst, true, o0 + 3 * s + q, o[3], sc);
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
        /// `tw_a.len() == 12·m`, `tw_b.len() == 3·m`, `m == 1` into an
        /// unpadded series.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn radix16<S: Source<F> + ?Sized, D: Sink<F> + ?Sized>(
            src: &S,
            tw_a: &[C],
            tw_b: &[C],
            dst: &mut D,
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            let (ta, tb) = (tw_a.as_ptr(), tw_b.as_ptr());
            let sm = s * m;
            let sc = splat(F::from_usize(16 * sm).recip());
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
                            read(src, false, i0 + sm * l + q),
                            read(src, false, i0 + sm * (l + 4) + q),
                            read(src, true, i0 + sm * (l + 8) + q),
                            read(src, true, i0 + sm * (l + 12) + q),
                        ];
                        x[l] = butterflies4(t, wa[l], ih_mask);
                    }
                    for j in 0..4 {
                        let o = butterflies4([x[0][j], x[1][j], x[2][j], x[3][j]], wb, ih_mask);
                        for (jj, &oj) in o.iter().enumerate() {
                            write(dst, jj >= 2, o0 + s * (j + 4 * jj) + q, oj, sc);
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
// Series in lanes (f32 / f64): one register holds one real or imaginary
// part of `SERIES` series, so every butterfly runs `SERIES` transforms.
// ---------------------------------------------------------------------------
//
// A planar buffer holds one transform's elements for a group of `SERIES`
// series: element `j` is `SERIES` complex slots, the series' real parts
// then their imaginary parts (`zload(p, j)`). Lanes run across series
// only, so each lane evaluates the scalar tree of its own series.

/// The series-in-lanes kernels, over the vocabulary in scope: `F`, `C`,
/// `V`, `LANES` (complex values per interleaved register), `SERIES` (real
/// lanes per register, `2·LANES`), `add`/`sub`/`mul`/`fma`/`xor`/`splat`,
/// `load`/`store`, and this module's `loadv`/`storev` (one register of
/// reals), `load_row`/`store_row` (one TOSI row through a tier) and
/// `transpose` (a `SERIES × SERIES` lane transpose).
macro_rules! lane_kernels {
    () => {
        /// One complex value of `SERIES` series: their real parts and their
        /// imaginary parts, one register each.
        #[derive(Clone, Copy)]
        struct Z {
            re: V,
            im: V,
        }

        op! {
            fn zzero() -> Z { Z { re: splat(0.0), im: splat(0.0) } }
        }
        op! {
            fn zadd(a: Z, b: Z) -> Z { Z { re: add(a.re, b.re), im: add(a.im, b.im) } }
        }
        op! {
            fn zsub(a: Z, b: Z) -> Z { Z { re: sub(a.re, b.re), im: sub(a.im, b.im) } }
        }
        op! {
            /// `−x` per lane: a sign flip, exact (`−0` and NaN included).
            fn neg(x: V) -> V { xor(x, splat(-0.0)) }
        }
        op! {
            fn zconj(a: Z) -> Z { Z { re: a.re, im: neg(a.im) } }
        }
        op! {
            /// `a·k` per part, the tree of `Complex::scale`.
            fn zscale(a: Z, k: V) -> Z { Z { re: mul(a.re, k), im: mul(a.im, k) } }
        }
        op! {
            /// `a·b`, the tree of `Complex::mul`: `re = fma(a.re, b.re,
            /// −(a.im·b.im))`, `im = fma(a.re, b.im, a.im·b.re)` — one unfused
            /// product and one FMA per part.
            fn zmul(a: Z, b: Z) -> Z {
                Z { re: fma(a.re, b.re, neg(mul(a.im, b.im))), im: fma(a.re, b.im, mul(a.im, b.re)) }
            }
        }
        op! {
            /// One complex value in every lane.
            fn zbcast(w: C) -> Z { Z { re: splat(w.re), im: splat(w.im) } }
        }
        op! {
            /// Element `j` of a planar buffer.
            fn zload(p: *const C, j: usize) -> Z {
                let p = (p as *const F).add(2 * SERIES * j);
                Z { re: loadv(p), im: loadv(p.add(SERIES)) }
            }
        }
        op! {
            fn zstore(p: *mut C, j: usize, v: Z) {
                let p = (p as *mut F).add(2 * SERIES * j);
                storev(p, v.re);
                storev(p.add(SERIES), v.im);
            }
        }
        /// Packed value `z[j]` of the group's padded series: TOSI rows
        /// `2j` and `2j + 1`, each rounded through the pad tier.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn zload_rows<P: Real>(src: &PaddedSeries<'_, P>, j: usize) -> Z {
            Z { re: load_row::<P>(src.at(2 * j)), im: load_row::<P>(src.at(2 * j + 1)) }
        }

        /// Store the kept packed value `z[i]`, scaled by `k`, as TOSI rows
        /// `2i` and `2i + 1` through the unpad route — the scale after the
        /// butterfly, as the plan's scaling pass multiplies.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn zput_rows<Q: Real>(sink: &mut UnpaddedSeries<Q>, i: usize, v: Z, k: V) {
            store_row::<Q>(sink.at(2 * i), mul(v.re, k));
            store_row::<Q>(sink.at(2 * i + 1), mul(v.im, k));
        }
        /// The samples at `x` of `SERIES` rows `lane` apart, each rounded
        /// through the pad tier into `F`, one load per row.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn gather_rows<P: Real>(x: *const f64, lane: usize) -> V {
            let lanes: [F; SERIES] =
                core::array::from_fn(|k| F::from_f64(P::from_f64(*x.add(k * lane)).to_f64()));
            loadv(lanes.as_ptr())
        }

        /// The inverse of [`gather_rows`]: the lanes of `v` as the samples
        /// at `out` of `SERIES` rows `lane` apart, each routed through the
        /// unpad tier, one store per row.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn scatter_rows<Q: Real>(out: *mut f64, lane: usize, v: V) {
            let lanes: [F; SERIES] = core::mem::transmute(v);
            for (k, &x) in lanes.iter().enumerate() {
                *out.add(k * lane) = Q::from_f64(x.to_f64()).to_f64();
            }
        }

        /// Packed value `z[j]` of the group's padded rows: samples `2j`
        /// and `2j + 1` of every row, each rounded through the pad tier,
        /// through a transposing load — `+0` registers, not loaded, past
        /// the rows' head, and a `+0` imaginary part where the head ends
        /// between the two.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn zload_transposed<P: Real>(src: &PaddedRows<'_, P>, j: usize) -> Z {
            let t = 2 * j;
            if t + 1 < src.head() {
                let (re, im) = load_pairs::<P>(src.at(t), src.lane());
                Z { re, im }
            } else if t < src.head() {
                Z { re: gather_rows::<P>(src.at(t), src.lane()), im: splat(0.0) }
            } else {
                zzero()
            }
        }

        /// Store packed value `z[o]`, scaled by `k`, as samples `2o` and
        /// `2o + 1` of every row of the group that the rows keep, each
        /// routed through the unpad tier, through a transposing store.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn zput_transposed<Q: Real>(sink: &mut UnpaddedRows<Q>, o: usize, v: Z, k: V) {
            let t = 2 * o;
            if t + 1 < sink.keep() {
                store_pairs::<Q>(sink.at(t), sink.lane(), mul(v.re, k), mul(v.im, k));
            } else if t < sink.keep() {
                scatter_rows::<Q>(sink.at(t), sink.lane(), mul(v.re, k));
            }
        }

        op! {
            /// Row `t` of the group's complex columns: `SERIES` adjacent
            /// interleaved values at `p`, split into their parts.
            fn zload_cols(p: *const C) -> Z {
                let (re, im) = deinterleave(load(p), load(p.add(LANES)));
                Z { re, im }
            }
        }
        op! {
            /// The inverse of [`zload_cols`]: `v` as `SERIES` adjacent
            /// interleaved values at `p`.
            fn zstore_cols(p: *mut C, v: Z) {
                let (lo, hi) = interleave(v.re, v.im);
                store(p, lo);
                store(p.add(LANES), hi);
            }
        }

        /// Operand `j` of a stage reading `src` for the group: element `j`
        /// of a planar buffer, packed value `z[j]` of the group's padded
        /// series — `+0` registers when `upper` (see `read`) — or rows, or
        /// row `j` of the group's complex columns, `+0` registers past
        /// their rows.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn zread<S: Source<F> + ?Sized>(src: &S, upper: bool, j: usize) -> Z {
            match src.operands() {
                Operands::Slice(x) => zload(x.as_ptr(), j),
                Operands::Padded(_) if upper => zzero(),
                Operands::Padded(x) => zload_rows(&x, j),
                Operands::Rows(x) => zload_transposed(&x, j),
                Operands::Column(x) if j < x.rows() => zload_cols(x.at(j)),
                Operands::Column(_) => zzero(),
            }
        }

        /// Store output `o` of a stage writing `dst` for the group: element
        /// `o` of a planar buffer or, scaled by `k`, the group's unpadded
        /// series — nothing when `upper` (see `write`) — or rows, or row
        /// `o` of the group's complex columns, nothing past their rows.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn zwrite<D: Sink<F> + ?Sized>(dst: &mut D, upper: bool, o: usize, v: Z, k: V) {
            match dst.outputs() {
                Outputs::Slice(x) => zstore(x.as_mut_ptr(), o, v),
                Outputs::Unpadded(_) if upper => {}
                Outputs::Unpadded(x) => zput_rows(x, o, v, k),
                Outputs::Rows(x) => zput_transposed(x, o, v, k),
                Outputs::Column(x) if o < x.rows() => zstore_cols(x.at(o), zscale(v, k)),
                Outputs::Column(_) => {}
            }
        }

        op! {
            /// Twiddle triple `w` broadcast into lanes.
            fn zbcast3(w: [C; 3]) -> [Z; 3] { [zbcast(w[0]), zbcast(w[1]), zbcast(w[2])] }
        }
        op! {
            /// `SERIES` radix-4 butterflies: the tree of [`butterfly4`] per
            /// lane; `∓i·h` is a lane move and a sign flip.
            fn zbutterfly4(t: [Z; 4], w: [Z; 3], inverse: bool) -> [Z; 4] {
                let e = zadd(t[0], t[2]);
                let f = zsub(t[0], t[2]);
                let g = zadd(t[1], t[3]);
                let h = zsub(t[1], t[3]);
                let ih = if inverse { Z { re: neg(h.im), im: h.re } } else { Z { re: h.im, im: neg(h.re) } };
                [zadd(e, g), zmul(zadd(f, ih), w[0]), zmul(zsub(e, g), w[1]), zmul(zsub(f, ih), w[2])]
            }
        }

        /// Radix-2/4 Stockham stage for a group, `SERIES` series per
        /// butterfly, each butterfly's twiddles broadcast from the stage
        /// table (conjugated for the inverse): from a planar buffer or the
        /// group's padded series, into a planar buffer or the group's
        /// unpadded rows. Extents: `src.len() == dst.len() == r·m·s`
        /// elements (`SERIES` slots each in a planar buffer), `tw.len() ==
        /// (r−1)·m`, `r ∈ {2, 4}`; `SERIES` adjacent columns readable and
        /// writable at every row of a padded or unpadded series, and `m ==
        /// 1` into the latter.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn lanes_stage<S: Source<F> + ?Sized, D: Sink<F> + ?Sized>(
            src: &S,
            tw: &[C],
            dst: &mut D,
            r: usize,
            m: usize,
            s: usize,
            inverse: bool,
        ) {
            // The direction is a constant in the body, so a stage folds its
            // conjugations and sign flips (the forward's first stage and the
            // inverse's last are in one direction only). Rows are only read
            // forward and written inverse (the dispatcher asserts it), so
            // their bodies compile that direction alone.
            let inverse = match (src.operands(), dst.outputs()) {
                (Operands::Rows(_), _) => false,
                (_, Outputs::Rows(_)) => true,
                _ => inverse,
            };
            if inverse {
                lanes_stage_in::<S, D, true>(src, tw, dst, r, m, s)
            } else {
                lanes_stage_in::<S, D, false>(src, tw, dst, r, m, s)
            }
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn lanes_stage_in<S: Source<F> + ?Sized, D: Sink<F> + ?Sized, const INVERSE: bool>(
            src: &S,
            tw: &[C],
            dst: &mut D,
            r: usize,
            m: usize,
            s: usize,
        ) {
            let (sm, inverse) = (s * m, INVERSE);
            let k = splat(F::from_usize(r * sm).recip());
            for p in 0..m {
                let (i0, o0) = (s * p, r * s * p);
                if r == 4 {
                    let twiddles = || zbcast3(twiddles4(tw, m, p, inverse));
                    let mut butterfly = |q: usize, w: [Z; 3]| {
                        let i = i0 + q;
                        let t = [
                            zread(src, false, i),
                            zread(src, false, i + sm),
                            zread(src, true, i + 2 * sm),
                            zread(src, true, i + 3 * sm),
                        ];
                        let o = zbutterfly4(t, w, inverse);
                        for (j, &oj) in o.iter().enumerate() {
                            zwrite(dst, j >= 2, o0 + q + j * s, oj, k);
                        }
                    };
                    // A first stage (`s = 1`) has no inner loop to hoist its
                    // twiddles out of: they are broadcast where they are used.
                    if s == 1 {
                        butterfly(0, twiddles())
                    } else {
                        let w = twiddles();
                        (0..s).for_each(|q| butterfly(q, w))
                    }
                } else {
                    let w = zbcast(twiddle2(tw, p, inverse));
                    for q in 0..s {
                        let (a, b) = (zread(src, false, i0 + q), zread(src, true, i0 + sm + q));
                        zwrite(dst, false, o0 + q, zadd(a, b), k);
                        zwrite(dst, true, o0 + s + q, zmul(zsub(a, b), w), k);
                    }
                }
            }
        }

        /// Move `bins` planar elements into `SERIES` series-major spectra of
        /// `bins` values each, `ld` apart (`spectra[s·ld + b]`), `LANES`
        /// bins per transpose; the inverse of [`from_series`]. Extents:
        /// `planar.len() ≥ SERIES·bins`, `spectra.len() ≥ (SERIES − 1)·ld +
        /// bins`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn to_series(planar: &[C], spectra: &mut [C], bins: usize, ld: usize) {
            let (pp, op) = (planar.as_ptr() as *const F, spectra.as_mut_ptr());
            let mut b = 0;
            while b + LANES <= bins {
                let mut rows = [splat(0.0); SERIES];
                for (i, row) in rows.iter_mut().enumerate() {
                    *row = loadv(pp.add(2 * SERIES * b + SERIES * i));
                }
                for (s, &col) in transpose(rows).iter().enumerate() {
                    store(op.add(s * ld + b), col);
                }
                b += LANES;
            }
            for b in b..bins {
                for s in 0..SERIES {
                    *op.add(s * ld + b) =
                        C::new(*pp.add(2 * SERIES * b + s), *pp.add(2 * SERIES * b + SERIES + s));
                }
            }
        }

        /// Move `SERIES` series-major spectra of `bins` values each, `ld`
        /// apart, into `bins` planar elements; the inverse of
        /// [`to_series`], with its extents.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn from_series(spectra: &[C], planar: &mut [C], bins: usize, ld: usize) {
            let (sp, pp) = (spectra.as_ptr(), planar.as_mut_ptr() as *mut F);
            let mut b = 0;
            while b + LANES <= bins {
                let mut cols = [splat(0.0); SERIES];
                for (s, col) in cols.iter_mut().enumerate() {
                    *col = load(sp.add(s * ld + b));
                }
                for (i, &row) in transpose(cols).iter().enumerate() {
                    storev(pp.add(2 * SERIES * b + SERIES * i), row);
                }
                b += LANES;
            }
            for b in b..bins {
                for s in 0..SERIES {
                    let v = *sp.add(s * ld + b);
                    *pp.add(2 * SERIES * b + s) = v.re;
                    *pp.add(2 * SERIES * b + SERIES + s) = v.im;
                }
            }
        }

        /// R2C unpack of a group: the `h + 1` bins of every series from
        /// `Z = FFT_h(z)` in the planar `z`, each mirror pair through the
        /// tree of [`unpack_pair`] per lane, staged in the planar `bins` and
        /// transposed into the `SERIES` series-major spectra `out`.
        /// Extents: `tw.len() == h`, `z.len() == SERIES·h`, `bins.len() ==
        /// out.len() == SERIES·(h + 1)`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn lanes_unpack(z: &[C], tw: &[C], bins: &mut [C], out: &mut [C]) {
            let h = tw.len();
            let (zp, bp) = (z.as_ptr(), bins.as_mut_ptr());
            let half = splat(0.5);
            let z0 = zload(zp, 0);
            zstore(bp, 0, Z { re: add(z0.re, z0.im), im: splat(0.0) });
            zstore(bp, h, Z { re: sub(z0.re, z0.im), im: splat(0.0) });
            if h % 2 == 0 {
                zstore(bp, h / 2, zconj(zload(zp, h / 2)));
            }
            for k in 1..h.div_ceil(2) {
                let zk = zload(zp, k);
                let zc = zconj(zload(zp, h - k));
                let ze = zscale(zadd(zk, zc), half);
                let d = zscale(zsub(zk, zc), half);
                let zo = Z { re: d.im, im: neg(d.re) };
                let t = zmul(zbcast(tw[k]), zo);
                zstore(bp, k, zadd(ze, t));
                zstore(bp, h - k, zconj(zsub(ze, t)));
            }
            to_series(bins, out, h + 1, h + 1);
        }

        /// C2R repack of a group: the `SERIES` series-major spectra
        /// transposed into the planar `bins`, then `Z`, the FFT of every
        /// series' packed signal, into the planar `z`, each mirror pair
        /// through the tree of [`repack_pair`] per lane. Extents:
        /// `tw.len() == h`, `spectra.len() == bins.len() == SERIES·(h + 1)`,
        /// `z.len() == SERIES·h`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn lanes_repack(spectra: &[C], tw: &[C], bins: &mut [C], z: &mut [C]) {
            let h = tw.len();
            from_series(spectra, bins, h + 1, h + 1);
            let (xp, zp) = (bins.as_ptr(), z.as_mut_ptr());
            let half = splat(0.5);
            let (x0, xh) = (zload(xp, 0), zload(xp, h));
            zstore(zp, 0, Z { re: mul(add(x0.re, xh.re), half), im: mul(sub(x0.re, xh.re), half) });
            if h % 2 == 0 {
                zstore(zp, h / 2, zconj(zload(xp, h / 2)));
            }
            for k in 1..h.div_ceil(2) {
                let xk = zload(xp, k);
                let xc = zconj(zload(xp, h - k));
                let ze = zscale(zadd(xk, xc), half);
                let t = zscale(zsub(xk, xc), half);
                let zo = zmul(zbcast(tw[k].conj()), t);
                zstore(zp, k, Z { re: sub(ze.re, zo.im), im: add(ze.im, zo.re) });
                let (zec, zoc) = (zconj(ze), zconj(zo));
                zstore(zp, h - k, Z { re: sub(zec.re, zoc.im), im: add(zec.im, zoc.re) });
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

// ---------------------------------------------------------------------------
// Rows in lanes: the transposing load and store of four `f64` rows.
// ---------------------------------------------------------------------------

op! {
    /// Samples `t` and `t + 1` of four rows `lane` apart, from `x` (sample
    /// `t` of the first row) on: one 2-sample load per row, transposed into
    /// the four rows' samples `t`, then their samples `t + 1`.
    fn load_pairs4(x: *const f64, lane: usize) -> (__m256d, __m256d) {
        let a = _mm256_set_m128d(_mm_loadu_pd(x.add(2 * lane)), _mm_loadu_pd(x));
        let b = _mm256_set_m128d(_mm_loadu_pd(x.add(3 * lane)), _mm_loadu_pd(x.add(lane)));
        (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b))
    }
}
op! {
    /// The inverse of [`load_pairs4`]: the four rows' samples `t` (`even`)
    /// and `t + 1` (`odd`), one 2-sample store per row.
    fn store_pairs4(out: *mut f64, lane: usize, even: __m256d, odd: __m256d) {
        let (lo, hi) = (_mm256_unpacklo_pd(even, odd), _mm256_unpackhi_pd(even, odd));
        _mm_storeu_pd(out, _mm256_castpd256_pd128(lo));
        _mm_storeu_pd(out.add(lane), _mm256_castpd256_pd128(hi));
        _mm_storeu_pd(out.add(2 * lane), _mm256_extractf128_pd::<1>(lo));
        _mm_storeu_pd(out.add(3 * lane), _mm256_extractf128_pd::<1>(hi));
    }
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

    /// Real lanes per register: series per lane group.
    const SERIES: usize = 8;

    op! { fn loadv(p: *const F) -> V { _mm256_loadu_ps(p) } }
    op! { fn storev(p: *mut F, v: V) { _mm256_storeu_ps(p, v) } }

    /// `SERIES` consecutive samples of a TOSI row at `x`, each rounded
    /// through the pad tier, then into `f32` — `cvtpd_ps` after a wide
    /// tier, the scalar conversions after a 16-bit one.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_row<P: Real>(x: *const f64) -> V {
        if P::BYTES >= 4 {
            let (lo, hi) = (_mm256_loadu_pd(x), _mm256_loadu_pd(x.add(4)));
            return _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
        }
        let lanes: [F; SERIES] =
            core::array::from_fn(|i| F::from_f64(P::from_f64(*x.add(i)).to_f64()));
        loadv(lanes.as_ptr())
    }

    /// Store `SERIES` lanes as consecutive samples of a TOSI row at `out`,
    /// each routed through the unpad tier: exactly widened after a wide
    /// route, the scalar conversions after a 16-bit one.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_row<Q: Real>(out: *mut f64, v: V) {
        if Q::BYTES >= 4 {
            _mm256_storeu_pd(out, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
            _mm256_storeu_pd(out.add(4), _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)));
            return;
        }
        let lanes: [F; SERIES] = core::mem::transmute(v);
        for (i, &x) in lanes.iter().enumerate() {
            *out.add(i) = Q::from_f64(x.to_f64()).to_f64();
        }
    }

    /// Samples `t` and `t + 1` of `SERIES` rows `lane` apart, from `x` on,
    /// each rounded through the pad tier, then into `f32`: two transposing
    /// loads of four rows and `cvtpd_ps` after a wide tier, the scalar
    /// conversions after a 16-bit one.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_pairs<P: Real>(x: *const f64, lane: usize) -> (V, V) {
        if P::BYTES < 4 {
            return (gather_rows::<P>(x, lane), gather_rows::<P>(x.add(1), lane));
        }
        let (re_lo, im_lo) = load_pairs4(x, lane);
        let (re_hi, im_hi) = load_pairs4(x.add(4 * lane), lane);
        (
            _mm256_set_m128(_mm256_cvtpd_ps(re_hi), _mm256_cvtpd_ps(re_lo)),
            _mm256_set_m128(_mm256_cvtpd_ps(im_hi), _mm256_cvtpd_ps(im_lo)),
        )
    }

    /// The inverse of [`load_pairs`]: samples `t` (`re`) and `t + 1`
    /// (`im`) of `SERIES` rows, each routed through the unpad tier —
    /// exactly widened into two transposing stores of four rows after a
    /// wide route, the scalar conversions after a 16-bit one.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_pairs<Q: Real>(out: *mut f64, lane: usize, re: V, im: V) {
        if Q::BYTES < 4 {
            scatter_rows::<Q>(out, lane, re);
            scatter_rows::<Q>(out.add(1), lane, im);
            return;
        }
        let (re_lo, im_lo) = (_mm256_castps256_ps128(re), _mm256_castps256_ps128(im));
        store_pairs4(out, lane, _mm256_cvtps_pd(re_lo), _mm256_cvtps_pd(im_lo));
        let (re_hi, im_hi) = (_mm256_extractf128_ps::<1>(re), _mm256_extractf128_ps::<1>(im));
        store_pairs4(out.add(4 * lane), lane, _mm256_cvtps_pd(re_hi), _mm256_cvtps_pd(im_hi));
    }

    op! {
        /// Swap the middle two 64-bit quarters of a register.
        fn swap_mid(x: V) -> V {
            _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_castps_pd(x)))
        }
    }
    op! {
        /// The real and imaginary parts of the 8 complex values in `a`
        /// then `b`, each in order.
        fn deinterleave(a: V, b: V) -> (V, V) {
            // Per 128-bit lane: parts 0, 1 of `a` then of `b`.
            let (re, im) = (_mm256_shuffle_ps::<0x88>(a, b), _mm256_shuffle_ps::<0xDD>(a, b));
            (swap_mid(re), swap_mid(im))
        }
    }
    op! {
        /// The inverse of [`deinterleave`]: the 8 complex values of parts
        /// `re` and `im`, interleaved, the first 4 then the last 4.
        fn interleave(re: V, im: V) -> (V, V) {
            let (re, im) = (swap_mid(re), swap_mid(im));
            (_mm256_unpacklo_ps(re, im), _mm256_unpackhi_ps(re, im))
        }
    }

    op! {
        /// 8×8 transpose of `f32` lanes: lane `s` of row `i` becomes lane
        /// `i` of row `s`.
        fn transpose(r: [V; SERIES]) -> [V; SERIES] {
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                _mm256_permute2f128_ps::<0x20>(u0, u4),
                _mm256_permute2f128_ps::<0x20>(u1, u5),
                _mm256_permute2f128_ps::<0x20>(u2, u6),
                _mm256_permute2f128_ps::<0x20>(u3, u7),
                _mm256_permute2f128_ps::<0x31>(u0, u4),
                _mm256_permute2f128_ps::<0x31>(u1, u5),
                _mm256_permute2f128_ps::<0x31>(u2, u6),
                _mm256_permute2f128_ps::<0x31>(u3, u7),
            ]
        }
    }

    native_kernels!();
    lane_kernels!();
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

    /// Real lanes per register: series per lane group.
    const SERIES: usize = 4;

    op! { fn loadv(p: *const F) -> V { _mm256_loadu_pd(p) } }
    op! { fn storev(p: *mut F, v: V) { _mm256_storeu_pd(p, v) } }

    /// `SERIES` consecutive samples of a TOSI row at `x`, each rounded
    /// through the pad tier: as loaded, through the `f32` round trip, or
    /// through the scalar conversions of a 16-bit tier.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_row<P: Real>(x: *const f64) -> V {
        match P::BYTES {
            8 => loadv(x),
            4 => _mm256_cvtps_pd(_mm256_cvtpd_ps(loadv(x))),
            _ => {
                let lanes: [F; SERIES] = core::array::from_fn(|i| P::from_f64(*x.add(i)).to_f64());
                loadv(lanes.as_ptr())
            }
        }
    }

    /// Store `SERIES` lanes as consecutive samples of a TOSI row at `out`,
    /// each routed through the unpad tier, as [`load_row`] rounds.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_row<Q: Real>(out: *mut f64, v: V) {
        match Q::BYTES {
            8 => storev(out, v),
            4 => storev(out, _mm256_cvtps_pd(_mm256_cvtpd_ps(v))),
            _ => {
                let lanes: [F; SERIES] = core::mem::transmute(v);
                for (i, &x) in lanes.iter().enumerate() {
                    *out.add(i) = Q::from_f64(x).to_f64();
                }
            }
        }
    }

    /// Samples `t` and `t + 1` of `SERIES` rows `lane` apart, from `x` on,
    /// each rounded through the pad tier: one transposing load, as loaded,
    /// through the `f32` round trip, or through the scalar conversions of
    /// a 16-bit tier.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_pairs<P: Real>(x: *const f64, lane: usize) -> (V, V) {
        match P::BYTES {
            8 => load_pairs4(x, lane),
            4 => {
                let (re, im) = load_pairs4(x, lane);
                (_mm256_cvtps_pd(_mm256_cvtpd_ps(re)), _mm256_cvtps_pd(_mm256_cvtpd_ps(im)))
            }
            _ => (gather_rows::<P>(x, lane), gather_rows::<P>(x.add(1), lane)),
        }
    }

    /// The inverse of [`load_pairs`]: samples `t` (`re`) and `t + 1`
    /// (`im`) of `SERIES` rows, each routed through the unpad tier, as
    /// [`load_pairs`] rounds.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_pairs<Q: Real>(out: *mut f64, lane: usize, re: V, im: V) {
        match Q::BYTES {
            8 => store_pairs4(out, lane, re, im),
            4 => {
                let (re, im) = (_mm256_cvtpd_ps(re), _mm256_cvtpd_ps(im));
                store_pairs4(out, lane, _mm256_cvtps_pd(re), _mm256_cvtps_pd(im))
            }
            _ => {
                scatter_rows::<Q>(out, lane, re);
                scatter_rows::<Q>(out.add(1), lane, im);
            }
        }
    }

    op! {
        /// Swap the middle two values of a register.
        fn swap_mid(x: V) -> V { _mm256_permute4x64_pd::<0b11_01_10_00>(x) }
    }
    op! {
        /// The real and imaginary parts of the 4 complex values in `a`
        /// then `b`, each in order.
        fn deinterleave(a: V, b: V) -> (V, V) {
            (swap_mid(_mm256_unpacklo_pd(a, b)), swap_mid(_mm256_unpackhi_pd(a, b)))
        }
    }
    op! {
        /// The inverse of [`deinterleave`]: the 4 complex values of parts
        /// `re` and `im`, interleaved, the first 2 then the last 2.
        fn interleave(re: V, im: V) -> (V, V) {
            let (re, im) = (swap_mid(re), swap_mid(im));
            (_mm256_unpacklo_pd(re, im), _mm256_unpackhi_pd(re, im))
        }
    }

    op! {
        /// 4×4 transpose of `f64` lanes: lane `s` of row `i` becomes lane
        /// `i` of row `s`.
        fn transpose(r: [V; SERIES]) -> [V; SERIES] {
            let t0 = _mm256_unpacklo_pd(r[0], r[1]);
            let t1 = _mm256_unpackhi_pd(r[0], r[1]);
            let t2 = _mm256_unpacklo_pd(r[2], r[3]);
            let t3 = _mm256_unpackhi_pd(r[2], r[3]);
            [
                _mm256_permute2f128_pd::<0x20>(t0, t2),
                _mm256_permute2f128_pd::<0x20>(t1, t3),
                _mm256_permute2f128_pd::<0x31>(t0, t2),
                _mm256_permute2f128_pd::<0x31>(t1, t3),
            ]
        }
    }

    native_kernels!();
    lane_kernels!();
}
