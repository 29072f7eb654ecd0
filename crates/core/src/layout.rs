//! Fused memory-operation kernels: pad, unpad, and the TOSI↔SOTI
//! reorderings, each with precision casts folded in.
//!
//! FFTMatvec's vectors live in two layouts: *time-outer/space-inner*
//! (TOSI — the block convention `[t][series]` of the math) and
//! *space-outer/time-inner* (SOTI — `[series][t]`, what the batched FFT
//! wants). The paper treats these reorderings as pure memory operations,
//! fuses any precision casts into them, and runs them in the lowest
//! precision of the adjacent compute phases (Section 3.2). Each function
//! here is one such fused kernel, dispatched over all four tiers of the
//! extended precision lattice (`h`/`b`/`s`/`d`) via
//! [`fftmatvec_numeric::with_real`].
//!
//! **The pipeline calls none of them.** Its transforms read the TOSI
//! input and write the TOSI output in place — the batched FFT's
//! `forward_padded` rounds each sample through `cfg[Pad]` into `cfg[Fft]`
//! in its first pass and never loads an embedding zero, and
//! `inverse_unpadded` computes only the kept half in its last pass and
//! stores it routed through `cfg[Unpad]` — and it stores `F̂`
//! frequency-minor, so its spectra never change layout between the
//! transforms (see [`crate::operator`]). These kernels are the reference
//! those passes equal on bits (the tests below compare them for every
//! tier pair) and the phases the block-major replay and the end-to-end
//! benchmark's traced leg time.
//!
//! # How they move
//!
//! All four are the same operation — a matrix transpose with a
//! per-element cast, between buffers whose leading dimensions differ
//! (pad and unpad skip the embedding half of each series) — and all four
//! are calls to one loop nest, [`transpose_map`], which moves 8×8 tiles.
//! The tiles are what makes a "pure memory operation" run at cache
//! bandwidth: the obvious loop writes (or reads) one element per row of
//! the other layout, and at the shapes the pipeline uses that stride is a
//! power of two — `out[i·256 + o]` for 65 consecutive `i` is 65 writes
//! 4 KiB apart, all in one set of a 12-way L1, so every line is evicted
//! before its neighbours arrive and the pass runs at a quarter of copy
//! bandwidth (256 × 64 f64, hot: 50–62 µs naive against 10–15 µs tiled;
//! the same bytes at stride 65 take 18 µs even naive). A tile keeps the
//! rows it reads and the rows it writes resident until both are complete.
//! Values never meet each other on the way, so tiling cannot change a
//! bit: the tests compare every tier pair against the naive loop on bits.

use fftmatvec_numeric::ndindex::transpose_map;
use fftmatvec_numeric::{Complex, ComplexBuffer, Precision, Real, RealBuffer};

/// Phase 1: TOSI input → SOTI zero-padded, cast to `p`.
///
/// `m[t·n_series + s]` for `t < nt` → `out[s·2nt + t]`; entries
/// `t ∈ [nt, 2nt)` are the circulant-embedding zeros.
///
/// Lengths are pipeline invariants, validated at the `LinearOperator`
/// boundary before any kernel runs; a mismatch here is a caller bug in
/// direct kernel use and asserts.
pub fn pad_input(m: &[f64], n_series: usize, nt: usize, p: Precision) -> RealBuffer {
    let mut out = RealBuffer::F64(Vec::new());
    pad_input_into(m, n_series, nt, p, &mut out);
    out
}

/// [`pad_input`] writing into a reusable buffer: `out` is
/// [`RealBuffer::reset`] to precision `p` (reusing its allocation when the
/// tier matches) and filled — the zero-allocation phase-1 kernel.
pub fn pad_input_into(m: &[f64], n_series: usize, nt: usize, p: Precision, out: &mut RealBuffer) {
    assert_eq!(m.len(), n_series * nt, "pad_input length mismatch");
    let n2 = 2 * nt;
    out.reset(p, n_series * n2);
    fn inner<T: Real>(m: &[f64], n_series: usize, nt: usize, out: &mut [T]) {
        transpose_map(m, n_series, out, 2 * nt, nt, n_series, T::from_f64);
    }
    match out {
        RealBuffer::F16(v) => inner(m, n_series, nt, v),
        RealBuffer::BF16(v) => inner(m, n_series, nt, v),
        RealBuffer::F32(v) => inner(m, n_series, nt, v),
        RealBuffer::F64(v) => inner(m, n_series, nt, v),
    }
}

/// Transposing cast kernel shared by both reorder directions: every
/// element moves `src[outer][inner] → out[inner][outer]` (in tiles, see
/// the module docs) while rounding into the target tier (casts route
/// through `f64`, then RTNE into the storage format — exact whenever the
/// target is at least as wide).
fn transpose_cast<Tin: Real, Tout: Real>(
    src: &[Complex<Tin>],
    outer: usize,
    inner: usize,
    out: &mut [Complex<Tout>],
) {
    transpose_map(src, inner, out, outer, outer, inner, Complex::cast);
}

/// Dispatch a source/destination `ComplexBuffer` pair to the generic
/// transpose-cast kernel — all 4×4 tier combinations, resolved once.
fn transpose_cast_dispatch(
    src: &ComplexBuffer,
    outer: usize,
    inner: usize,
    out: &mut ComplexBuffer,
) {
    macro_rules! arms {
        ($s:expr, $($var:ident),+) => {
            match out {
                $(ComplexBuffer::$var(o) => transpose_cast($s, outer, inner, o),)+
            }
        };
    }
    match src {
        ComplexBuffer::C16(s) => arms!(s, C16, CB16, C32, C64),
        ComplexBuffer::CB16(s) => arms!(s, C16, CB16, C32, C64),
        ComplexBuffer::C32(s) => arms!(s, C16, CB16, C32, C64),
        ComplexBuffer::C64(s) => arms!(s, C16, CB16, C32, C64),
    }
}

/// The paper's phase 2→3 reorder: per-series spectra `[series][freq]` →
/// per-frequency batch vectors `[freq][series]`, cast to `p`, into a
/// reusable buffer (see [`pad_input_into`]). The pipeline keeps `F̂`
/// frequency-minor and never reorders; this is the block-major
/// reference's (Figure 1's strided batched GEMV, the traced replays).
pub fn spectrum_to_batch_into(
    spec: &ComplexBuffer,
    n_series: usize,
    nfreq: usize,
    p: Precision,
    out: &mut ComplexBuffer,
) {
    assert_eq!(spec.len(), n_series * nfreq, "spectrum_to_batch length mismatch");
    out.reset_for_overwrite(p, n_series * nfreq);
    transpose_cast_dispatch(spec, n_series, nfreq, out);
}

/// The paper's phase 3→4 reorder: per-frequency batch `[freq][series]` →
/// per-series spectra `[series][freq]`, cast to `p`, into a reusable
/// buffer — the inverse of [`spectrum_to_batch_into`].
pub fn batch_to_spectrum_into(
    batch: &ComplexBuffer,
    n_series: usize,
    nfreq: usize,
    p: Precision,
    out: &mut ComplexBuffer,
) {
    assert_eq!(batch.len(), n_series * nfreq, "batch_to_spectrum length mismatch");
    out.reset_for_overwrite(p, n_series * nfreq);
    transpose_cast_dispatch(batch, nfreq, n_series, out);
}

/// Phase 5: SOTI padded time signals → TOSI unpadded output, routed
/// through precision `p` (the phase-5 memory-op precision) before the
/// final double-precision output — this round-trip is exactly where a
/// narrow phase 5 loses bits. When the storage tier widens exactly into
/// `p` (see [`Precision::widens_exactly_to`]) the route is the identity
/// and is skipped; otherwise every element is rounded through `p`. Note
/// the two 16-bit tiers do *not* widen into each other, so f16 data
/// routed through BFloat16 does round — the identity shortcut is the
/// representability relation, not the lattice meet.
pub fn unpad_output(time: &RealBuffer, n_series: usize, nt: usize, p: Precision) -> Vec<f64> {
    let mut out = vec![0.0f64; n_series * nt];
    unpad_output_into(time, n_series, nt, p, &mut out);
    out
}

/// [`unpad_output`] writing into a caller buffer of length
/// `n_series·nt` — the zero-allocation phase-5 kernel feeding the
/// `apply_into` output slice directly.
pub fn unpad_output_into(
    time: &RealBuffer,
    n_series: usize,
    nt: usize,
    p: Precision,
    out: &mut [f64],
) {
    let n2 = 2 * nt;
    assert_eq!(time.len(), n_series * n2, "unpad_output length mismatch");
    assert_eq!(out.len(), n_series * nt, "unpad_output output length mismatch");
    fn inner<T: Real>(
        v: &[T],
        n_series: usize,
        nt: usize,
        route: Option<Precision>,
        out: &mut [f64],
    ) {
        // The route is decided once per pass, not once per element.
        match route {
            None => transpose_map(v, 2 * nt, out, n_series, n_series, nt, T::to_f64),
            Some(p) => {
                transpose_map(v, 2 * nt, out, n_series, n_series, nt, |x| p.round_f64(x.to_f64()))
            }
        }
    }
    let route = (!time.precision().widens_exactly_to(p)).then_some(p);
    match time {
        RealBuffer::F16(v) => inner(v, n_series, nt, route, out),
        RealBuffer::BF16(v) => inner(v, n_series, nt, route, out),
        RealBuffer::F32(v) => inner(v, n_series, nt, route, out),
        RealBuffer::F64(v) => inner(v, n_series, nt, route, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::rng::mantissa_stuff;
    use fftmatvec_numeric::SplitMix64;

    /// `(n_series, nt)` resp. `(n_series, nfreq)`: empty, degenerate,
    /// below-a-tile, partial-tile and whole-tile extents, then the three
    /// `bench_e2e` block shapes.
    const SHAPES: [(usize, usize); 12] = [
        (0, 5),
        (5, 0),
        (1, 37),
        (37, 1),
        (5, 13),
        (17, 8),
        (8, 17),
        (64, 256),
        (256, 65),
        (256, 64),
        (16, 64),
        (4, 4096),
    ];

    /// Random data with every class of special value cycled through it:
    /// signed zeros and infinities, NaN, subnormals of each tier, and
    /// magnitudes past the f16 (65504) and f32 ranges.
    fn awkward(len: usize, seed: u64) -> Vec<f64> {
        const SPECIAL: [f64; 14] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            -1e-310,
            1e-40,
            -6e-8,
            65504.0,
            -65520.0,
            7e4,
            -1e10,
            1e39,
        ];
        let mut rng = SplitMix64::new(seed);
        (0..len)
            .map(|i| if i % 3 == 1 { SPECIAL[i / 3 % 14] } else { rng.uniform(-2.0, 2.0) })
            .collect()
    }

    fn real_bits(b: &RealBuffer) -> (Precision, Vec<u64>) {
        (b.precision(), (0..b.len()).map(|i| b.get(i).to_bits()).collect())
    }

    fn complex_bits(b: &ComplexBuffer) -> (Precision, Vec<(u64, u64)>) {
        let bits = |i| (b.get(i).re.to_bits(), b.get(i).im.to_bits());
        (b.precision(), (0..b.len()).map(bits).collect())
    }

    /// The element-by-element loops the tiled kernels replaced, kept as
    /// the reference (casts by the same per-element `from_f64`).
    fn naive_pad(m: &[f64], n_series: usize, nt: usize, p: Precision) -> RealBuffer {
        let mut padded = vec![0.0; n_series * 2 * nt];
        for t in 0..nt {
            for s in 0..n_series {
                padded[s * 2 * nt + t] = m[t * n_series + s];
            }
        }
        RealBuffer::from_f64(p, &padded)
    }

    fn naive_transpose_cast(
        src: &ComplexBuffer,
        outer: usize,
        inner: usize,
        p: Precision,
    ) -> ComplexBuffer {
        let mut moved = vec![fftmatvec_numeric::C64::zero(); outer * inner];
        for o in 0..outer {
            for i in 0..inner {
                moved[i * outer + o] = src.get(o * inner + i);
            }
        }
        ComplexBuffer::from_c64(p, &moved)
    }

    fn naive_unpad(time: &RealBuffer, n_series: usize, nt: usize, p: Precision) -> Vec<f64> {
        let mut out = vec![0.0; n_series * nt];
        for s in 0..n_series {
            for t in 0..nt {
                let x = time.get(s * 2 * nt + t);
                let exact = time.precision().widens_exactly_to(p);
                out[t * n_series + s] = if exact { x } else { p.round_f64(x) };
            }
        }
        out
    }

    #[test]
    fn tiled_pad_matches_the_naive_loop_on_bits_in_every_tier() {
        for (n_series, nt) in SHAPES {
            let m = awkward(n_series * nt, 11);
            for p in Precision::ALL {
                // The buffer arrives holding garbage of the same tier and
                // length: the embedding halves must still come out +0.
                let mut out = RealBuffer::from_f64(p, &vec![f64::NAN; n_series * 2 * nt]);
                pad_input_into(&m, n_series, nt, p, &mut out);
                let want = naive_pad(&m, n_series, nt, p);
                assert_eq!(real_bits(&out), real_bits(&want), "{n_series}x{nt} {p}");
                for s in 0..n_series {
                    for t in nt..2 * nt {
                        assert_eq!(out.get(s * 2 * nt + t).to_bits(), 0, "{n_series}x{nt} {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_unpad_matches_the_naive_loop_on_bits_with_and_without_a_route() {
        for (n_series, nt) in SHAPES {
            let data = awkward(n_series * 2 * nt, 12);
            for stored in Precision::ALL {
                let time = RealBuffer::from_f64(stored, &data);
                // Every route tier: identity where `stored` widens exactly
                // into it, a rounding pass otherwise.
                for p in Precision::ALL {
                    let mut out = vec![f64::NAN; n_series * nt];
                    unpad_output_into(&time, n_series, nt, p, &mut out);
                    let want = naive_unpad(&time, n_series, nt, p);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out), bits(&want), "{n_series}x{nt} {stored}->{p}");
                }
            }
        }
    }

    #[test]
    fn tiled_reorders_match_the_naive_loop_on_bits_for_all_tier_pairs() {
        for (n_series, nfreq) in SHAPES {
            let flat = awkward(2 * n_series * nfreq, 13);
            let data: Vec<fftmatvec_numeric::C64> =
                flat.chunks_exact(2).map(|z| fftmatvec_numeric::C64::new(z[0], z[1])).collect();
            for from in Precision::ALL {
                let src = ComplexBuffer::from_c64(from, &data);
                for to in Precision::ALL {
                    let what = format!("{n_series}x{nfreq} {from}->{to}");
                    // Both arrive holding a wrong-length buffer of tier `to`.
                    let mut out = ComplexBuffer::zeros(to, 3);
                    spectrum_to_batch_into(&src, n_series, nfreq, to, &mut out);
                    let want = naive_transpose_cast(&src, n_series, nfreq, to);
                    assert_eq!(complex_bits(&out), complex_bits(&want), "in {what}");
                    let mut out = ComplexBuffer::zeros(to, 3);
                    batch_to_spectrum_into(&src, n_series, nfreq, to, &mut out);
                    let want = naive_transpose_cast(&src, nfreq, n_series, to);
                    assert_eq!(complex_bits(&out), complex_bits(&want), "out {what}");
                }
            }
        }
    }

    /// The transforms that fold pad and unpad into their first and last
    /// passes equal the kernels they replace on the apply path, on bits:
    /// the padded forward equals [`pad_input_into`] + `cast_real` +
    /// `forward`, the unpadded inverse equals `inverse` +
    /// [`unpad_output_into`] — every (pad, FFT) and (IFFT, unpad) tier
    /// pair, transform lengths covering tiny, single-pass, Bluestein,
    /// radix-2-first and radix-16-last plans and odd `nt`, long lengths in
    /// the series lanes up to `longseries_dd`'s, series counts on both sides
    /// of one register and of one lane group, awkward and plain inputs, at
    /// every SIMD level. NaNs compare canonical, as in the FFT's own bit tests:
    /// which operand's payload a NaN inherits is left open by IEEE-754
    /// (the vector and scalar butterflies differ there), only where NaNs
    /// land is a property of the schedule.
    #[test]
    fn padded_transforms_equal_pad_cast_forward_and_inverse_unpad_on_bits() {
        use fftmatvec_backend::{CpuPool, DeviceBackend};
        use fftmatvec_numeric::simd::{active_level, level_supported, set_active_level, SimdLevel};
        use fftmatvec_numeric::C64;

        let canon = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
        let bits = |v: &[f64]| v.iter().map(|&x| canon(x)).collect::<Vec<_>>();
        let complex_bits = |b: &ComplexBuffer| {
            (0..b.len()).map(|i| (canon(b.get(i).re), canon(b.get(i).im))).collect::<Vec<_>>()
        };
        let device = CpuPool::new();
        let prev = active_level();
        for level in [SimdLevel::Portable, SimdLevel::Avx2] {
            if !level_supported(level) {
                continue;
            }
            set_active_level(level);
            // N_t = 1024, 2048 and 4096 run in the series lanes (up to
            // `2·N_t` = 16 384; a longer power of two runs the per-series
            // bodies the narrow widths take here); 8 and 9 series are one
            // whole `f32` lane group (two `f64` ones) and one more.
            // Up to N_t = 64 the widths add lane groups with a remainder
            // of every size, and more than one staging group; the Bluestein
            // and radix-5 lengths, which never run in lanes, add the first
            // staged width.
            for nt in [1usize, 2, 3, 5, 64, 97, 250, 1024, 2048, 4096] {
                let widths: &[usize] = match nt {
                    97 | 250 => &[1, 2, 3, 4, 5, 9, 16],
                    1024 | 2048 => &[8, 9],
                    4096 => &[1, 2, 3, 4, 5, 16],
                    _ => &[1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33],
                };
                for &n_series in widths {
                    let seed = (nt * 31 + n_series) as u64;
                    let mut plain = vec![0.0; n_series * 2 * (nt + 1)];
                    SplitMix64::new(seed).fill_uniform(&mut plain, -1.0, 1.0);
                    // From 1024 on the specials make every output NaN;
                    // plain data is what exercises the long transforms'
                    // bits.
                    let awkward = (nt < 1024).then(|| awkward(plain.len(), seed));
                    for data in awkward.into_iter().chain([plain]) {
                        let m = &data[..n_series * nt];
                        let spec: Vec<C64> =
                            data.chunks_exact(2).map(|z| C64::new(z[0], z[1])).collect();
                        for p_fft in Precision::ALL {
                            let engine = device.real_fft(p_fft, 2 * nt).unwrap();
                            let nbins = n_series * (nt + 1);
                            for p_pad in Precision::ALL {
                                let what =
                                    format!("{level} nt={nt} ns={n_series} {p_pad}->{p_fft}");
                                let mut padded = RealBuffer::F64(Vec::new());
                                pad_input_into(m, n_series, nt, p_pad, &mut padded);
                                let mut casted = RealBuffer::F64(Vec::new());
                                device.cast_real(&padded, p_fft, &mut casted).unwrap();
                                let mut want = ComplexBuffer::zeros(p_fft, nbins);
                                engine.forward(&casted, &mut want).unwrap();
                                let mut got = ComplexBuffer::from_c64(p_fft, &spec[..nbins]);
                                engine.forward_padded(m, n_series, p_pad, &mut got).unwrap();
                                assert_eq!(complex_bits(&got), complex_bits(&want), "{what}");
                            }
                            // The inverse runs on tier-`p_fft` spectra.
                            let spectrum = ComplexBuffer::from_c64(p_fft, &spec[..nbins]);
                            let mut time = RealBuffer::zeros(p_fft, n_series * 2 * nt);
                            engine.inverse(&spectrum, &mut time).unwrap();
                            for p_unpad in Precision::ALL {
                                let what =
                                    format!("{level} nt={nt} ns={n_series} {p_fft}->{p_unpad}");
                                let mut want = vec![f64::NAN; n_series * nt];
                                unpad_output_into(&time, n_series, nt, p_unpad, &mut want);
                                let mut got = vec![f64::NAN; n_series * nt];
                                engine.inverse_unpadded(&spectrum, p_unpad, &mut got).unwrap();
                                assert_eq!(bits(&got), bits(&want), "{what}");
                            }
                        }
                    }
                }
            }
        }
        set_active_level(prev);
    }

    #[test]
    fn pad_layout_and_zeros() {
        // 2 series, 3 timesteps: m[t][s] = 10·t + s.
        let m: Vec<f64> = (0..6).map(|i| (i / 2 * 10 + i % 2) as f64).collect();
        let b = pad_input(&m, 2, 3, Precision::Double);
        let v = b.as_f64().unwrap();
        assert_eq!(v.len(), 12);
        // Series 0: [0,10,20,0,0,0]; series 1: [1,11,21,0,0,0].
        assert_eq!(&v[0..6], &[0.0, 10.0, 20.0, 0.0, 0.0, 0.0]);
        assert_eq!(&v[6..12], &[1.0, 11.0, 21.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pad_in_single_rounds() {
        let x = mantissa_stuff(0.3);
        let b = pad_input(&[x], 1, 1, Precision::Single);
        assert_eq!(b.precision(), Precision::Single);
        assert_ne!(b.get(0), x, "single pad must round a stuffed double");
        let b = pad_input(&[x], 1, 1, Precision::Double);
        assert_eq!(b.get(0), x);
    }

    #[test]
    fn pad_in_half_tiers_rounds_harder() {
        let x = mantissa_stuff(0.3);
        for p in [Precision::Half, Precision::BFloat16] {
            let b = pad_input(&[x], 1, 1, p);
            assert_eq!(b.precision(), p);
            let err = (b.get(0) - x).abs() / x.abs();
            assert!(err > 0.0 && err <= p.epsilon(), "{p}: {err}");
            // The 16-bit pad loses strictly more than the single pad.
            let s_err = (pad_input(&[x], 1, 1, Precision::Single).get(0) - x).abs();
            assert!((b.get(0) - x).abs() > s_err);
        }
    }

    /// The reorders into a fresh buffer of tier `p`.
    fn to_batch(spec: &ComplexBuffer, ns: usize, nf: usize, p: Precision) -> ComplexBuffer {
        let mut out = ComplexBuffer::C64(Vec::new());
        spectrum_to_batch_into(spec, ns, nf, p, &mut out);
        out
    }

    fn to_spectrum(batch: &ComplexBuffer, ns: usize, nf: usize, p: Precision) -> ComplexBuffer {
        let mut out = ComplexBuffer::C64(Vec::new());
        batch_to_spectrum_into(batch, ns, nf, p, &mut out);
        out
    }

    #[test]
    fn reorders_are_mutually_inverse() {
        let (ns, nf) = (5, 7);
        let mut rng = SplitMix64::new(1);
        let data: Vec<fftmatvec_numeric::C64> = (0..ns * nf)
            .map(|_| fftmatvec_numeric::C64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        let spec = ComplexBuffer::C64(data.clone());
        let batch = to_batch(&spec, ns, nf, Precision::Double);
        let back = to_spectrum(&batch, ns, nf, Precision::Double);
        assert_eq!(back.to_c64_vec(), data);
    }

    #[test]
    fn reorder_transposes_indices() {
        // spec[s][f] = s + 10f ⇒ batch[f][s] must equal the same value.
        let (ns, nf) = (3, 4);
        let data: Vec<fftmatvec_numeric::C64> = (0..ns)
            .flat_map(|s| {
                (0..nf).map(move |f| fftmatvec_numeric::C64::new((s + 10 * f) as f64, 0.0))
            })
            .collect();
        let batch = to_batch(&ComplexBuffer::C64(data), ns, nf, Precision::Double);
        for f in 0..nf {
            for s in 0..ns {
                assert_eq!(batch.get(f * ns + s).re, (s + 10 * f) as f64);
            }
        }
    }

    #[test]
    fn reorder_casts() {
        let spec = ComplexBuffer::C64(vec![fftmatvec_numeric::C64::new(mantissa_stuff(1.0), 0.0)]);
        let single = to_batch(&spec, 1, 1, Precision::Single);
        assert_eq!(single.precision(), Precision::Single);
        assert_ne!(single.get(0).re, spec.get(0).re);
        let double = to_batch(&spec, 1, 1, Precision::Double);
        assert_eq!(double.get(0), spec.get(0));
        // Down to the 16-bit tiers and exactly back up.
        for p in [Precision::Half, Precision::BFloat16] {
            let narrow = to_batch(&spec, 1, 1, p);
            assert_eq!(narrow.precision(), p);
            assert_ne!(narrow.get(0).re, spec.get(0).re);
            let widened = to_spectrum(&narrow, 1, 1, Precision::Double);
            assert_eq!(widened.get(0), narrow.get(0), "widening must be exact");
        }
    }

    #[test]
    fn reorder_roundtrip_all_tier_pairs() {
        let (ns, nf) = (4, 5);
        let mut rng = SplitMix64::new(9);
        let data: Vec<fftmatvec_numeric::C64> = (0..ns * nf)
            .map(|_| fftmatvec_numeric::C64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        for p in Precision::ALL {
            // Once rounded into tier p, a p → p transpose roundtrip is
            // exact for every tier.
            let spec = ComplexBuffer::from_c64(p, &data);
            let batch = to_batch(&spec, ns, nf, p);
            let back = to_spectrum(&batch, ns, nf, p);
            assert_eq!(back, spec, "{p}");
        }
    }

    #[test]
    fn unpad_drops_padding_and_transposes() {
        // 2 series of length 2·2: series s has values [s0, s1, pad, pad].
        let time = RealBuffer::F64(vec![1.0, 2.0, 9.0, 9.0, 3.0, 4.0, 9.0, 9.0]);
        let out = unpad_output(&time, 2, 2, Precision::Double);
        // TOSI: t0 = [1,3], t1 = [2,4].
        assert_eq!(out, vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn unpad_single_route_loses_bits() {
        let x = mantissa_stuff(0.7);
        let time = RealBuffer::F64(vec![x, 0.0]);
        let exact = unpad_output(&time, 1, 1, Precision::Double);
        assert_eq!(exact[0], x);
        let lossy = unpad_output(&time, 1, 1, Precision::Single);
        assert_ne!(lossy[0], x);
        assert!((lossy[0] - x).abs() / x.abs() < 1e-6);
    }

    #[test]
    fn unpad_route_is_lattice_meet() {
        let x = mantissa_stuff(0.7);
        // f32 storage routed through Single or Double: exact.
        let time32 = RealBuffer::F32(vec![x as f32, 0.0]);
        let stored = x as f32 as f64;
        assert_eq!(unpad_output(&time32, 1, 1, Precision::Double)[0], stored);
        assert_eq!(unpad_output(&time32, 1, 1, Precision::Single)[0], stored);
        // ... but a Half route still rounds an f32 value.
        let routed = unpad_output(&time32, 1, 1, Precision::Half)[0];
        assert_ne!(routed, stored);
        assert_eq!(routed, Precision::Half.round_f64(stored));
        // A value already in f16 storage routes exactly through any tier
        // except bf16 (the 16-bit tiers do not widen into each other):
        // 1 + 2⁻⁹ is exact in f16 (ε = 2⁻¹⁰) but rounds away in bf16.
        let h = 1.0 + 2f64.powi(-9);
        let time16 = RealBuffer::from_f64(Precision::Half, &[h, 0.0]);
        assert_eq!(unpad_output(&time16, 1, 1, Precision::Single)[0], h);
        assert_eq!(unpad_output(&time16, 1, 1, Precision::Half)[0], h);
        assert_ne!(unpad_output(&time16, 1, 1, Precision::BFloat16)[0], h);
    }
}
