//! Stockham-style iterative mixed-radix FFT execution.
//!
//! This is the execution engine behind [`crate::FftPlan`] for lengths
//! whose prime factors are all ≤ [`crate::plan::MAX_RADIX`]. It replaces
//! the seed's recursive decimation-in-time walk (preserved in
//! [`crate::recursive`] as the benchmark baseline) with a flat stage
//! schedule:
//!
//! * Each prime-power factor becomes one [`Stage`] with its own
//!   precomputed twiddle table, laid out in the exact order that radix's
//!   butterfly consumes it — no `q·u` index arithmetic into a shared
//!   table.
//! * Passes ping-pong between two buffers (the caller's output and a
//!   pooled scratch slice). Stockham's self-sorting property means no
//!   bit/digit-reversal pass is ever needed, and the innermost loop runs
//!   over a contiguous stride-1 range.
//! * Radix 4 and radix 2 butterflies are hand-coded; any other radix
//!   (odd primes up to `MAX_RADIX`) uses a table-driven r-point DFT.
//!   Lengths with larger prime factors never reach this module — the plan
//!   routes them to [`crate::bluestein`].
//! * The stages are grouped once, in [`IterativeFft::new`], into a **pass
//!   schedule** — one [`Pass`] per trip through memory. After the first
//!   stage, each pair of consecutive radix-4 stages with stride `s ≥ 4`
//!   is one radix-16 pass ([`butterfly16`]): it loads 16 inputs, runs both
//!   butterfly layers in registers and stores 16 outputs, so a 4096-point
//!   transform makes 4 passes instead of 6. Every other stage is a pass
//!   of its own, and so is every stage of a 16-bit plan. The schedule is a
//!   pure function of the factor list and the tier.
//! * Every pass is first offered to the vector kernels of
//!   [`crate::simd`]; what they do not take runs [`scalar_stage`] or
//!   [`scalar_radix16`], whose one source body each is instantiated
//!   plainly and in an `avx2,fma` context ([`fftmatvec_numeric::fma_pass`])
//!   so `mul_add` is an instruction, not a libm call. All of them produce
//!   the same bits, and a radix-16 pass produces the bits of its two
//!   stages run one at a time: each value meets the same two
//!   [`butterfly4`] expression trees, only the intermediate stays in
//!   registers (or a 16-element stack tile) instead of a buffer.
//!
//! * [`IterativeFft::forward_padded`] and [`IterativeFft::inverse_unpadded`]
//!   replace one pass each for the real transform's circulant embedding
//!   (see `crate::padded`): the forward's first pass gathers its operands
//!   from a padded series, the embedding's zeros as `+0` values that are
//!   never loaded, and the inverse's last pass (`m = 1`) keeps only the
//!   outputs that hold a kept sample, scaling each by `1/n` after its
//!   butterfly — the multiply of the plan's scaling pass — on the way
//!   out. Both evaluate the stage's own expression trees, so their bits
//!   are those of the padded buffer through the full schedule.
//!
//! The decimation-in-frequency stage recurrence: with `n_cur = r·m` and
//! outer stride `s` (`n = s·n_cur`), stage output index `r·p + j` holds
//! `z_j[p] = ω_{n_cur}^{p·j} · Σ_l src[p + m·l] · ω_r^{j·l}` for each of
//! the `s` interleaved sub-problems, after which the schedule recurses on
//! `n_cur ← m`, `s ← s·r`. Fusing radix-4 stages at strides `s` and `4s`
//! (sub-transform counts `4m` and `m`): for each `p < m` and `q < s` the
//! pass reads `src[q + s·(p + m·l' + 4m·l)]` for `l, l' < 4`, runs
//! first-layer butterfly `l'` over `l` and second-layer butterfly `j` over
//! `l'`, and writes `dst[q + s·(16p + j + 4j')]`.

use fftmatvec_numeric::{fma_pass, Complex, Real};

use crate::padded::{PaddedSeries, UnpaddedSeries};
use crate::plan::{FftDirection, MAX_RADIX};

/// One butterfly stage of the iterative schedule.
pub(crate) struct Stage<T: Real> {
    /// Radix split off at this stage.
    pub(crate) radix: usize,
    /// Sub-transform count: `n_cur / radix`.
    pub(crate) m: usize,
    /// Outer stride: product of the radices of all earlier stages.
    pub(crate) s: usize,
    /// `e^{-2πi·p·j/n_cur}` for `p in 0..m`, `j in 1..r` (`j = 0` is
    /// always 1 and is omitted), in the order the radix's butterfly
    /// consumes it. Radix 2 and 4 keep one plane per output,
    /// `twiddles[(j−1)·m + p]`: the first-stage vector kernels run lanes
    /// across `p` and load each plane contiguously ([`twiddles4`]). The
    /// table-driven odd radices walk `j` innermost and keep
    /// `twiddles[p·(r−1) + (j−1)]`.
    pub(crate) twiddles: Vec<Complex<T>>,
    /// `radix_roots[x] = e^{-2πi·x/r}` (generic butterflies only; empty
    /// for the hand-coded radices 2 and 4).
    radix_roots: Vec<Complex<T>>,
}

/// One trip through memory of the pass schedule.
enum Pass<T: Real> {
    /// One stage of any radix.
    Single(Stage<T>),
    /// Two consecutive radix-4 stages, the first at stride `s ≥ 4` and
    /// the second at `4s`, run as one radix-16 pass.
    Radix16(Stage<T>, Stage<T>),
}

/// Iterative in-place/out-of-place executor for a fixed length `n ≥ 2`.
pub(crate) struct IterativeFft<T: Real> {
    n: usize,
    passes: Vec<Pass<T>>,
}

impl<T: Real> IterativeFft<T> {
    /// Build the stage and pass schedule from a factor list (as produced
    /// by `plan::factorize`, radix-4 first). `n` must equal the product
    /// of `factors` and be ≥ 2.
    pub(crate) fn new(n: usize, factors: &[usize]) -> Self {
        debug_assert!(n >= 2);
        debug_assert_eq!(factors.iter().product::<usize>(), n);
        let mut stages = Vec::with_capacity(factors.len());
        let mut n_cur = n;
        let mut s = 1usize;
        for &r in factors {
            let m = n_cur / r;
            let step = -2.0 * std::f64::consts::PI / n_cur as f64;
            let planar = r == 2 || r == 4;
            let mut twiddles = Vec::with_capacity(m * (r - 1));
            for i in 0..m * (r - 1) {
                let (p, j) =
                    if planar { (i % m, 1 + i / m) } else { (i / (r - 1), 1 + i % (r - 1)) };
                twiddles.push(Complex::<f64>::expi(step * (p * j) as f64).cast());
            }
            let radix_roots = if planar {
                Vec::new()
            } else {
                let rstep = -2.0 * std::f64::consts::PI / r as f64;
                (0..r).map(|x| Complex::<f64>::expi(rstep * x as f64).cast()).collect()
            };
            stages.push(Stage { radix: r, m, s, twiddles, radix_roots });
            s *= r;
            n_cur = m;
        }
        debug_assert_eq!(n_cur, 1);
        let mut passes = Vec::with_capacity(stages.len());
        let mut stages = stages.into_iter().peekable();
        while let Some(st) = stages.next() {
            let pairs = fuses::<T>() && st.radix == 4 && st.s >= 4;
            match stages.next_if(|next| pairs && next.radix == 4) {
                Some(next) => passes.push(Pass::Radix16(st, next)),
                None => passes.push(Pass::Single(st)),
            }
        }
        IterativeFft { n, passes }
    }

    /// Number of butterfly stages (a radix-16 pass counts two).
    pub(crate) fn stage_count(&self) -> usize {
        self.stages().count()
    }

    /// The butterfly stages in schedule order, a radix-16 pass as its two
    /// radix-4 stages: what an executor running one stage at a time (the
    /// series-in-lanes kernels, the schedule test's reference) walks.
    pub(crate) fn stages(&self) -> impl Iterator<Item = &Stage<T>> {
        self.passes
            .iter()
            .flat_map(|pass| match pass {
                Pass::Single(st) => [Some(st), None],
                Pass::Radix16(a, b) => [Some(a), Some(b)],
            })
            .flatten()
    }

    /// Exact scratch requirement: single-pass schedules run through a
    /// stack buffer, multi-pass schedules ping-pong through one length-`n`
    /// slice. The first stage is never fused, so this is the same as a
    /// stage-at-a-time schedule would need.
    #[inline]
    pub(crate) fn scratch_len(&self) -> usize {
        if self.passes.len() <= 1 {
            0
        } else {
            self.n
        }
    }

    /// Out-of-place transform (unscaled). The first pass reads straight
    /// from `input`; the remaining passes ping-pong between `output` and
    /// `scratch` so the final pass always lands in `output`.
    pub(crate) fn process(
        &self,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        dir: FftDirection,
    ) {
        let inverse = dir == FftDirection::Inverse;
        let k = self.passes.len();
        if k == 1 {
            run_pass(&self.passes[0], input, output, inverse);
            return;
        }
        let scratch = &mut scratch[..self.n];
        // After pass 0 there are k−1 ping-pong hops; parity picks the
        // first destination so the last hop writes `output`.
        let mut in_scratch = k % 2 == 0;
        run_pass(&self.passes[0], input, if in_scratch { scratch } else { output }, inverse);
        for pass in &self.passes[1..] {
            if in_scratch {
                run_pass(pass, scratch, output, inverse);
            } else {
                run_pass(pass, output, scratch, inverse);
            }
            in_scratch = !in_scratch;
        }
        debug_assert!(!in_scratch);
    }

    /// Forward transform (unscaled) of a zero-padded series read in place:
    /// the first pass takes its operands from `src` — the packed signal,
    /// rounded on load, its embedding zeros never loaded — and the
    /// remaining passes run as in [`Self::process`].
    pub(crate) fn forward_padded<P: Real>(
        &self,
        src: &PaddedSeries<'_, P>,
        output: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
    ) {
        debug_assert_eq!(src.nt(), self.n, "a padded series is half the real length");
        let k = self.passes.len();
        if k == 1 {
            first_pass_padded(&self.passes[0], src, output);
            return;
        }
        let scratch = &mut scratch[..self.n];
        // As in `process`: parity picks pass 0's destination.
        let mut in_scratch = k % 2 == 0;
        first_pass_padded(&self.passes[0], src, if in_scratch { scratch } else { output });
        for pass in &self.passes[1..] {
            if in_scratch {
                run_pass(pass, scratch, output, false);
            } else {
                run_pass(pass, output, scratch, false);
            }
            in_scratch = !in_scratch;
        }
    }

    /// Inverse transform (scaled by `1/n`) whose last pass computes only
    /// the outputs that hold a sample `sink` keeps, scales them and stores
    /// them through `sink`. `buf` is the input and is clobbered; the
    /// passes before the last ping-pong between it and `scratch`.
    pub(crate) fn inverse_unpadded<Q: Real>(
        &self,
        buf: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        sink: &mut UnpaddedSeries<Q>,
    ) {
        debug_assert_eq!(sink.nt(), self.n, "an unpadded series is half the real length");
        let (last, rest) = self.passes.split_last().expect("a schedule has at least one pass");
        let mut in_scratch = false;
        if !rest.is_empty() {
            let scratch = &mut scratch[..self.n];
            for pass in rest {
                if in_scratch {
                    run_pass(pass, scratch, buf, true);
                } else {
                    run_pass(pass, buf, scratch, true);
                }
                in_scratch = !in_scratch;
            }
        }
        let src = if in_scratch { &scratch[..self.n] } else { &*buf };
        last_pass_unpadded(last, src, sink, self.n);
    }

    /// In-place transform (unscaled): `buf` is both input and output.
    /// Single-pass schedules stage through a stack buffer; multi-pass
    /// schedules ping-pong `buf` ↔ `scratch`, with one copy-back pass when
    /// the pass count is odd.
    pub(crate) fn process_inplace(
        &self,
        buf: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        dir: FftDirection,
    ) {
        let inverse = dir == FftDirection::Inverse;
        let k = self.passes.len();
        if k == 1 {
            // n = radix ≤ MAX_RADIX: gather to the stack, scatter back.
            let mut t = [Complex::<T>::zero(); MAX_RADIX];
            t[..self.n].copy_from_slice(buf);
            run_pass(&self.passes[0], &t[..self.n], buf, inverse);
            return;
        }
        let scratch = &mut scratch[..self.n];
        let mut in_scratch = false;
        for pass in &self.passes {
            if in_scratch {
                run_pass(pass, scratch, buf, inverse);
            } else {
                run_pass(pass, buf, scratch, inverse);
            }
            in_scratch = !in_scratch;
        }
        if in_scratch {
            buf.copy_from_slice(scratch);
        }
    }
}

/// Does a plan in tier `T` fuse radix-4 pairs? The 16-bit tiers' stage
/// kernels round to storage between stages; their plans keep one stage
/// per pass.
#[inline(always)]
fn fuses<T: Real>() -> bool {
    T::BYTES >= 4
}

/// Execute one pass, reading `src` and writing every element of `dst`.
fn run_pass<T: Real>(pass: &Pass<T>, src: &[Complex<T>], dst: &mut [Complex<T>], inverse: bool) {
    match pass {
        Pass::Single(st) => run_stage(st, src, dst, inverse),
        Pass::Radix16(a, b) => {
            // Constant per tier: the 16-bit plans compile no radix-16 body.
            assert!(fuses::<T>(), "a 16-bit plan has no radix-16 pass");
            if !vector_radix16(a, b, src, dst, inverse) {
                scalar_radix16(a, b, src, dst, inverse);
            }
        }
    }
}

/// Execute one stage, reading `src` and writing every element of `dst`.
fn run_stage<T: Real>(st: &Stage<T>, src: &[Complex<T>], dst: &mut [Complex<T>], inverse: bool) {
    if !vector_stage(st, src, dst, inverse) {
        scalar_stage(st, src, dst, inverse);
    }
}

/// Offer a radix-16 pass (stages `a` then `b`) to the vector kernels;
/// `true` if one executed it.
fn vector_radix16<T: Real>(
    a: &Stage<T>,
    b: &Stage<T>,
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    inverse: bool,
) -> bool {
    crate::simd::pass_radix16(src, dst, b.m, a.s, &a.twiddles, &b.twiddles, inverse)
}

/// Offer one stage to the vector kernels of [`crate::simd`]; `true` if
/// one executed it. They evaluate the expression tree of [`butterfly2`]
/// / [`butterfly4`] / [`butterfly_odd`] per lane, so which path runs is
/// unobservable in the output.
fn vector_stage<T: Real>(
    st: &Stage<T>,
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    inverse: bool,
) -> bool {
    let (m, s, tw) = (st.m, st.s, &st.twiddles[..]);
    match st.radix {
        2 => crate::simd::stage_radix2(src, dst, m, s, tw, inverse),
        4 => crate::simd::stage_radix4(src, dst, m, s, tw, inverse),
        _ => crate::simd::stage_odd(src, dst, m, s, tw, &st.radix_roots, inverse),
    }
}

/// Butterfly `p`'s radix-2 twiddle, conjugated for the inverse transform.
#[inline(always)]
pub(crate) fn twiddle2<T: Real>(tw: &[Complex<T>], p: usize, inverse: bool) -> Complex<T> {
    if inverse {
        tw[p].conj()
    } else {
        tw[p]
    }
}

/// Butterfly `p`'s three radix-4 twiddles — one per plane of the stage
/// table — conjugated for the inverse transform.
#[inline(always)]
pub(crate) fn twiddles4<T: Real>(
    tw: &[Complex<T>],
    m: usize,
    p: usize,
    inverse: bool,
) -> [Complex<T>; 3] {
    let w = [tw[p], tw[m + p], tw[2 * m + p]];
    if inverse {
        w.map(Complex::conj)
    } else {
        w
    }
}

/// One radix-2 butterfly: inputs `src[i]`, `src[i + sm]`, outputs
/// `dst[o]`, `dst[o + s]`. The one scalar expression tree of a radix-2
/// stage — the scalar loop, the vector kernels' remainders and (per lane)
/// their bodies all evaluate exactly this.
#[inline(always)]
pub(crate) fn butterfly2<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    (i, sm): (usize, usize),
    (o, s): (usize, usize),
    w: Complex<T>,
) {
    let a = src[i];
    let b = src[i + sm];
    dst[o] = a + b;
    dst[o + s] = (a - b) * w;
}

/// One radix-4 butterfly: inputs `src[i + l·sm]`, outputs `dst[o + j·s]`;
/// the radix-4 counterpart of [`butterfly2`].
#[inline(always)]
pub(crate) fn butterfly4<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    (i, sm): (usize, usize),
    (o, s): (usize, usize),
    [w1, w2, w3]: [Complex<T>; 3],
    inverse: bool,
) {
    let t0 = src[i];
    let t1 = src[i + sm];
    let t2 = src[i + 2 * sm];
    let t3 = src[i + 3 * sm];
    let e = t0 + t2;
    let f = t0 - t2;
    let g = t1 + t3;
    let h = t1 - t3;
    // ∓i·h depending on direction.
    let ih = if inverse { Complex::new(-h.im, h.re) } else { Complex::new(h.im, -h.re) };
    dst[o] = e + g;
    dst[o + s] = (f + ih) * w1;
    dst[o + 2 * s] = (e - g) * w2;
    dst[o + 3 * s] = (f - ih) * w3;
}

/// One radix-16 butterfly: two layers of [`butterfly4`] through the stack
/// tile `t`. Inputs `src[i + sm·(l' + 4l)]`, outputs `dst[o + s·(j +
/// 4j')]`; first-layer butterfly `l'` takes twiddles `wa[l']`, every
/// second-layer butterfly takes `wb`. The scalar radix-16 pass and the
/// vector kernels' remainders evaluate exactly this, and their bodies
/// the same two trees per lane.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn butterfly16<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    (i, sm): (usize, usize),
    (o, s): (usize, usize),
    wa: &[[Complex<T>; 3]; 4],
    wb: [Complex<T>; 3],
    inverse: bool,
    t: &mut [Complex<T>; 16],
) {
    for (l, &w) in wa.iter().enumerate() {
        butterfly4(src, t, (i + sm * l, 4 * sm), (4 * l, 1), w, inverse);
    }
    for j in 0..4 {
        butterfly4(t, dst, (j, 4), (o + s * j, 4 * s), wb, inverse);
    }
}

/// The four first-layer twiddle triples of radix-16 butterfly `p` (stage
/// `a`, `4m` sub-transforms, butterflies `p + m·l'`) and the second
/// layer's triple (stage `b`, `m` sub-transforms).
#[inline(always)]
pub(crate) fn twiddles16<T: Real>(
    tw_a: &[Complex<T>],
    tw_b: &[Complex<T>],
    m: usize,
    p: usize,
    inverse: bool,
) -> ([[Complex<T>; 3]; 4], [Complex<T>; 3]) {
    let wa = [
        twiddles4(tw_a, 4 * m, p, inverse),
        twiddles4(tw_a, 4 * m, p + m, inverse),
        twiddles4(tw_a, 4 * m, p + 2 * m, inverse),
        twiddles4(tw_a, 4 * m, p + 3 * m, inverse),
    ];
    (wa, twiddles4(tw_b, m, p, inverse))
}

/// One table-driven odd-radix butterfly (`r = roots.len()`): inputs
/// `src[i + l·sm]`, outputs `dst[o + j·s]`, `tw` the butterfly's `r − 1`
/// twiddles; the counterpart of [`butterfly2`]. Output `j` is the
/// sequential chain `acc ← t_l·ω_r^{jl} + acc` over `l = 1..r` — the
/// vector kernel runs the same chain per lane. `t` is the caller's
/// gather buffer, so a stage zeroes it once, not per butterfly.
#[inline(always)]
pub(crate) fn butterfly_odd<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    (i, sm): (usize, usize),
    (o, s): (usize, usize),
    tw: &[Complex<T>],
    roots: &[Complex<T>],
    inverse: bool,
    t: &mut [Complex<T>; MAX_RADIX],
) {
    let r = roots.len();
    let conj = |w: Complex<T>| if inverse { w.conj() } else { w };
    for (l, tl) in t[..r].iter_mut().enumerate() {
        *tl = src[i + sm * l];
    }
    let mut acc = t[0];
    for &tl in &t[1..r] {
        acc += tl;
    }
    dst[o] = acc;
    for j in 1..r {
        let mut acc = t[0];
        // x = j·l mod r, stepped instead of divided.
        let mut x = 0;
        for &tl in &t[1..r] {
            x += j;
            if x >= r {
                x -= r;
            }
            acc = tl.mul_add(conj(roots[x]), acc);
        }
        dst[o + s * j] = acc * conj(tw[j - 1]);
    }
}

fma_pass! {
    /// The scalar stage loops: every radix for the portable level, and at
    /// a vector level whatever [`crate::simd`] has no kernel for (the
    /// 16-bit tiers' odd radices and first stage, odd radices below one
    /// register of stride).
    fn scalar_stage<T: Real>(
        st: &Stage<T>,
        src: &[Complex<T>],
        dst: &mut [Complex<T>],
        inverse: bool,
    ) {
        let (r, m, s) = (st.radix, st.m, st.s);
        let sm = s * m;
        match r {
            2 => {
                for p in 0..m {
                    let w = twiddle2(&st.twiddles, p, inverse);
                    for q in 0..s {
                        butterfly2(src, dst, (s * p + q, sm), (2 * s * p + q, s), w);
                    }
                }
            }
            4 => {
                for p in 0..m {
                    let w = twiddles4(&st.twiddles, m, p, inverse);
                    for q in 0..s {
                        butterfly4(src, dst, (s * p + q, sm), (4 * s * p + q, s), w, inverse);
                    }
                }
            }
            _ => {
                let mut t = [Complex::<T>::zero(); MAX_RADIX];
                for p in 0..m {
                    let tw = &st.twiddles[p * (r - 1)..(p + 1) * (r - 1)];
                    for q in 0..s {
                        let (i, o) = (s * p + q, r * s * p + q);
                        butterfly_odd(src, dst, (i, sm), (o, s), tw, &st.radix_roots, inverse, &mut t);
                    }
                }
            }
        }
    }
}

fma_pass! {
    /// The scalar radix-16 pass (radix-4 stages `a` at stride `s`, then
    /// `b` at `4s`): the portable level's, and wherever no vector kernel
    /// takes the pass.
    fn scalar_radix16<T: Real>(
        a: &Stage<T>,
        b: &Stage<T>,
        src: &[Complex<T>],
        dst: &mut [Complex<T>],
        inverse: bool,
    ) {
        let (m, s) = (b.m, a.s);
        let mut t = [Complex::<T>::zero(); 16];
        for p in 0..m {
            let (wa, wb) = twiddles16(&a.twiddles, &b.twiddles, m, p, inverse);
            for q in 0..s {
                butterfly16(src, dst, (s * p + q, s * m), (16 * s * p + q, s), &wa, wb, inverse, &mut t);
            }
        }
    }
}

/// Run the first pass of a forward transform with its operands read from
/// the padded series `src` (the first stage is never fused, so `pass` is
/// one stage at stride 1): a vector kernel where one takes it, else
/// [`scalar_first_padded`].
fn first_pass_padded<T: Real, P: Real>(
    pass: &Pass<T>,
    src: &PaddedSeries<'_, P>,
    dst: &mut [Complex<T>],
) {
    let Pass::Single(st) = pass else { unreachable!("the first stage is never fused") };
    debug_assert_eq!(st.s, 1);
    let (m, tw) = (st.m, &st.twiddles[..]);
    let taken = match st.radix {
        2 => crate::simd::first_radix2_padded(src, dst, m, tw),
        4 => crate::simd::first_radix4_padded(src, dst, m, tw),
        _ => false,
    };
    if !taken {
        scalar_first_padded(st, src, dst);
    }
}

/// Run the last pass of an inverse transform of length `n` into `sink`:
/// a vector kernel where one takes it, else [`scalar_last_unpadded`].
fn last_pass_unpadded<T: Real, Q: Real>(
    pass: &Pass<T>,
    src: &[Complex<T>],
    sink: &mut UnpaddedSeries<Q>,
    n: usize,
) {
    let taken = match pass {
        Pass::Single(st) if st.radix == 2 => {
            crate::simd::last_radix2_unpadded(src, sink, st.s, &st.twiddles)
        }
        Pass::Single(st) if st.radix == 4 => {
            crate::simd::last_radix4_unpadded(src, sink, st.s, &st.twiddles)
        }
        Pass::Radix16(a, b) => {
            crate::simd::last_radix16_unpadded(src, sink, a.s, &a.twiddles, &b.twiddles)
        }
        _ => false,
    };
    if !taken {
        scalar_last_unpadded(pass, src, sink, n);
    }
}

fma_pass! {
    /// The scalar first pass of a forward transform over a padded series:
    /// each butterfly gathers its `r` operands from `src` (the embedding's
    /// `+0` past the live half) onto the stack and runs the stage's
    /// expression tree on them — the values [`scalar_stage`] computes from
    /// the padded buffer. Every radix, every tier.
    fn scalar_first_padded<T: Real, P: Real>(
        st: &Stage<T>,
        src: &PaddedSeries<'_, P>,
        dst: &mut [Complex<T>],
    ) {
        let (r, m) = (st.radix, st.m);
        let mut t = [Complex::<T>::zero(); MAX_RADIX];
        let mut gather = [Complex::<T>::zero(); MAX_RADIX];
        for p in 0..m {
            for (l, tl) in t[..r].iter_mut().enumerate() {
                *tl = src.packed(p + m * l);
            }
            match r {
                2 => butterfly2(&t, dst, (0, 1), (2 * p, 1), twiddle2(&st.twiddles, p, false)),
                4 => {
                    let w = twiddles4(&st.twiddles, m, p, false);
                    butterfly4(&t, dst, (0, 1), (4 * p, 1), w, false);
                }
                _ => {
                    let tw = &st.twiddles[p * (r - 1)..(p + 1) * (r - 1)];
                    let roots = &st.radix_roots;
                    butterfly_odd(&t, dst, (0, 1), (r * p, 1), tw, roots, false, &mut gather);
                }
            }
        }
    }
}

fma_pass! {
    /// The scalar last pass of an inverse transform of length `n` into
    /// `sink`: each butterfly (one stage or one radix-16 pair, `m = 1`)
    /// writes its outputs to a stack tile, and only those that hold a kept
    /// sample are scaled by `1/n` — the multiply of the plan's scaling
    /// pass, after the butterfly — and stored. Every radix, every tier.
    fn scalar_last_unpadded<T: Real, Q: Real>(
        pass: &Pass<T>,
        src: &[Complex<T>],
        sink: &mut UnpaddedSeries<Q>,
        n: usize,
    ) {
        let scale = T::from_usize(n).recip();
        let live = sink.live();
        let mut tile = [Complex::<T>::zero(); MAX_RADIX];
        match pass {
            Pass::Single(st) => {
                let (r, s, tw) = (st.radix, st.s, &st.twiddles[..]);
                let mut gather = [Complex::<T>::zero(); MAX_RADIX];
                for q in 0..s.min(live) {
                    match r {
                        2 => butterfly2(src, &mut tile, (q, s), (0, 1), twiddle2(tw, 0, true)),
                        4 => butterfly4(src, &mut tile, (q, s), (0, 1), twiddles4(tw, 1, 0, true), true),
                        _ => {
                            let roots = &st.radix_roots;
                            butterfly_odd(src, &mut tile, (q, s), (0, 1), tw, roots, true, &mut gather);
                        }
                    }
                    for (j, v) in tile[..r].iter().enumerate().take_while(|&(j, _)| q + s * j < live) {
                        sink.put_packed(q + s * j, v.scale(scale));
                    }
                }
            }
            Pass::Radix16(a, b) => {
                let s = a.s;
                let (wa, wb) = twiddles16(&a.twiddles, &b.twiddles, 1, 0, true);
                let mut t = [Complex::<T>::zero(); 16];
                for q in 0..s.min(live) {
                    butterfly16(src, &mut tile, (q, s), (0, 1), &wa, wb, true, &mut t);
                    for (j, v) in tile[..16].iter().enumerate().take_while(|&(j, _)| q + s * j < live) {
                        sink.put_packed(q + s * j, v.scale(scale));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::naive_dft;
    use fftmatvec_numeric::SplitMix64;

    type C = Complex<f64>;

    fn random_signal(n: usize, seed: u64) -> Vec<C> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| C::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
    }

    /// The exact factor schedule the plan would hand the engine.
    fn factors_of(n: usize) -> Vec<usize> {
        crate::plan::factorize(n).expect("test sizes have no Bluestein-path factors")
    }

    #[test]
    fn stages_match_naive_dft() {
        for n in [2usize, 3, 4, 5, 6, 8, 12, 16, 27, 30, 49, 61, 64, 100, 120] {
            let eng = IterativeFft::<f64>::new(n, &factors_of(n));
            let x = random_signal(n, n as u64);
            let mut out = vec![C::zero(); n];
            let mut scratch = vec![C::zero(); eng.scratch_len()];
            eng.process(&x, &mut out, &mut scratch, FftDirection::Forward);
            let mut slow = vec![C::zero(); n];
            naive_dft(&x, &mut slow, FftDirection::Forward);
            let err = out.iter().zip(&slow).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-10 * n as f64, "n={n} err={err}");
        }
    }

    #[test]
    fn inplace_matches_out_of_place() {
        for n in [2usize, 4, 5, 8, 16, 32, 60, 64, 128, 200, 2000] {
            let eng = IterativeFft::<f64>::new(n, &factors_of(n));
            let x = random_signal(n, 1 + n as u64);
            let mut out = vec![C::zero(); n];
            let mut scratch = vec![C::zero(); eng.scratch_len()];
            eng.process(&x, &mut out, &mut scratch, FftDirection::Forward);
            let mut buf = x.clone();
            eng.process_inplace(&mut buf, &mut scratch, FftDirection::Forward);
            let err = out.iter().zip(&buf).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-12, "n={n} err={err}");
        }
    }

    /// At an AVX2-class level every pass of every power-of-two `f32` /
    /// `f64` schedule, fused or single, is *taken* by a vector kernel — a
    /// silent fall-back to a scalar body (the first stage, before it had
    /// a kernel) fails here, not in a benchmark. Vacuous when the process
    /// runs portable.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_pow2_stage_is_taken_by_a_vector_kernel() {
        let _level = crate::LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fn check<T: Real>() {
            for log2 in 3..=13 {
                let n = 1usize << log2;
                let eng = IterativeFft::<T>::new(n, &factors_of(n));
                let src = vec![Complex::<T>::zero(); n];
                let mut dst = src.clone();
                for pass in &eng.passes {
                    let (taken, what) = match pass {
                        Pass::Single(st) => (
                            vector_stage(st, &src, &mut dst, false),
                            format!("radix-{} stage m={} s={}", st.radix, st.m, st.s),
                        ),
                        Pass::Radix16(a, b) => (
                            vector_radix16(a, b, &src, &mut dst, false),
                            format!("radix-16 pass m={} s={}", b.m, a.s),
                        ),
                    };
                    assert!(taken, "n={n}: {what} ran scalar");
                }
            }
        }
        if fftmatvec_numeric::simd::fma_active() {
            check::<f32>();
            check::<f64>();
        }
    }

    /// The padded forward's first pass and the unpadded inverse's last
    /// pass of every power-of-two `f32` / `f64` schedule are taken by a
    /// vector kernel too — contiguous and strided series alike. Vacuous
    /// when the process runs portable.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_pow2_padded_pass_is_taken_by_a_vector_kernel() {
        let _level = crate::LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fn check<T: Real>() {
            for log2 in 3..=13 {
                let n = 1usize << log2;
                let eng = IterativeFft::<T>::new(n, &factors_of(n));
                let x = vec![0.0; 3 * n];
                for stride in [1, 3] {
                    let src = PaddedSeries::<f64>::new(&x, stride, n);
                    let mut dst = vec![Complex::<T>::zero(); n];
                    let Pass::Single(st) = &eng.passes[0] else { unreachable!("first stage") };
                    let (m, tw) = (st.m, &st.twiddles[..]);
                    let taken = match st.radix {
                        2 => crate::simd::first_radix2_padded(&src, &mut dst, m, tw),
                        4 => crate::simd::first_radix4_padded(&src, &mut dst, m, tw),
                        _ => false,
                    };
                    assert!(taken, "n={n} stride {stride}: padded first stage ran scalar");
                    let mut out = vec![0.0; stride * n];
                    // SAFETY: `out` holds `stride·n` elements, borrowed by
                    // nothing else.
                    let mut sink =
                        unsafe { UnpaddedSeries::<f64>::new(out.as_mut_ptr(), stride, n) };
                    let src = vec![Complex::<T>::zero(); n];
                    let taken = match eng.passes.last().unwrap() {
                        Pass::Single(st) if st.radix == 2 => {
                            crate::simd::last_radix2_unpadded(&src, &mut sink, st.s, &st.twiddles)
                        }
                        Pass::Single(st) if st.radix == 4 => {
                            crate::simd::last_radix4_unpadded(&src, &mut sink, st.s, &st.twiddles)
                        }
                        Pass::Radix16(a, b) => crate::simd::last_radix16_unpadded(
                            &src,
                            &mut sink,
                            a.s,
                            &a.twiddles,
                            &b.twiddles,
                        ),
                        Pass::Single(_) => false,
                    };
                    assert!(taken, "n={n} stride {stride}: unpadded last pass ran scalar");
                }
            }
        }
        if fftmatvec_numeric::simd::fma_active() {
            check::<f32>();
            check::<f64>();
        }
    }

    /// Bits of every component, NaNs canonical: which operand's payload a
    /// NaN inherits is left open by IEEE-754, only where NaNs land is a
    /// property of the schedule.
    fn bits<T: Real>(v: &[Complex<T>]) -> Vec<(u64, u64)> {
        let b = |x: T| if x.to_f64().is_nan() { u64::MAX } else { x.to_f64().to_bits() };
        v.iter().map(|z| (b(z.re), b(z.im))).collect()
    }

    /// The reference the pass schedule must reproduce: every stage run on
    /// its own through [`run_stage`], one trip through memory each.
    fn stage_at_a_time<T: Real>(
        eng: &IterativeFft<T>,
        x: &[Complex<T>],
        inverse: bool,
    ) -> Vec<Complex<T>> {
        let mut cur = x.to_vec();
        let mut next = vec![Complex::<T>::zero(); x.len()];
        for st in eng.stages() {
            run_stage(st, &cur, &mut next, inverse);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// The production pass schedule equals the stage-at-a-time reference
    /// on bits: every power of two up to 2¹⁴ and three mixed-radix
    /// lengths, all four tiers, both directions, out of place and in
    /// place, at the vector level and the portable one, on noise and on
    /// special values (signed zeros, infinities, NaNs).
    #[test]
    fn pass_schedule_equals_stage_at_a_time_on_bits() {
        use fftmatvec_numeric::half::{bf16, f16};
        use fftmatvec_numeric::simd::{active_level, level_supported, set_active_level, SimdLevel};

        fn check<T: Real>() {
            let sizes = (1..=14).map(|k| 1usize << k).chain([60, 240, 2000]);
            for n in sizes {
                let eng = IterativeFft::<T>::new(n, &factors_of(n));
                let mut rng = SplitMix64::new(0x5CED + n as u64);
                let specials =
                    [0.0, -0.0, 1.0, -0.5, 3e4, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
                let noise: Vec<Complex<T>> = (0..n)
                    .map(|_| {
                        Complex::new(
                            T::from_f64(rng.uniform(-1.0, 1.0)),
                            T::from_f64(rng.uniform(-1.0, 1.0)),
                        )
                    })
                    .collect();
                let special: Vec<Complex<T>> = (0..n)
                    .map(|_| {
                        let mut pick =
                            || T::from_f64(specials[rng.next_u64() as usize % specials.len()]);
                        Complex::new(pick(), pick())
                    })
                    .collect();
                let mut scratch = vec![Complex::<T>::zero(); eng.scratch_len()];
                for x in [&noise, &special] {
                    for dir in [FftDirection::Forward, FftDirection::Inverse] {
                        let want = bits(&stage_at_a_time(&eng, x, dir == FftDirection::Inverse));
                        let mut out = vec![Complex::<T>::zero(); n];
                        eng.process(x, &mut out, &mut scratch, dir);
                        assert_eq!(
                            bits(&out),
                            want,
                            "{:?} n={n} {dir:?} out of place",
                            T::PRECISION
                        );
                        let mut buf = x.clone();
                        eng.process_inplace(&mut buf, &mut scratch, dir);
                        assert_eq!(bits(&buf), want, "{:?} n={n} {dir:?} in place", T::PRECISION);
                    }
                }
            }
        }

        let _level = crate::LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = active_level();
        for level in [SimdLevel::Portable, SimdLevel::Avx2] {
            if !level_supported(level) {
                continue;
            }
            set_active_level(level);
            check::<f64>();
            check::<f32>();
            check::<f16>();
            check::<bf16>();
        }
        set_active_level(prev);
    }

    /// The pass schedule: after the first stage, radix-4 pairs at
    /// `s ≥ 4` fuse, left to right, in the native tiers only.
    #[test]
    fn radix4_pairs_after_the_first_stage_fuse_in_native_tiers() {
        fn shape<T: Real>(n: usize) -> Vec<usize> {
            let eng = IterativeFft::<T>::new(n, &factors_of(n));
            let shape: Vec<usize> = eng
                .passes
                .iter()
                .map(|pass| match pass {
                    Pass::Single(st) => st.radix,
                    Pass::Radix16(..) => 16,
                })
                .collect();
            assert_eq!(eng.stage_count(), factors_of(n).len(), "n={n}");
            shape
        }
        assert_eq!(shape::<f64>(4096), [4, 16, 16, 4]);
        assert_eq!(shape::<f32>(1024), [4, 16, 16]);
        assert_eq!(shape::<f64>(64), [4, 16]);
        assert_eq!(shape::<f64>(16), [4, 4]);
        assert_eq!(shape::<f64>(2048), [4, 16, 16, 2]);
        assert_eq!(shape::<f64>(8192), [4, 16, 16, 4, 2]);
        assert_eq!(shape::<f64>(240), [4, 4, 3, 5]);
        assert_eq!(shape::<f32>(2000), [4, 4, 5, 5, 5]);
        assert_eq!(shape::<fftmatvec_numeric::half::f16>(4096), [4; 6]);
        assert_eq!(shape::<fftmatvec_numeric::half::bf16>(64), [4; 3]);
    }

    #[test]
    fn scratch_len_is_zero_for_single_stage() {
        for n in [2usize, 3, 4, 61] {
            assert_eq!(IterativeFft::<f64>::new(n, &factors_of(n)).scratch_len(), 0, "n={n}");
        }
        assert_eq!(IterativeFft::<f64>::new(8, &factors_of(8)).scratch_len(), 8);
        assert_eq!(IterativeFft::<f64>::new(2048, &factors_of(2048)).scratch_len(), 2048);
    }
}
