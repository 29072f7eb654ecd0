//! Instruction-level dispatch for every pass the FFT makes over its data:
//! vector kernels for the butterflies and the real-transform mirror
//! loops, and [`fma_pass`] (defined in `fftmatvec_numeric::simd`, where
//! every crate finds it) for the scalar loops that remain. Bluestein's
//! pointwise multiply is `fftmatvec_numeric::simd::pointwise_mul_assign`,
//! the one the Toeplitz symbol multiply also runs.
//!
//! Each `bool` entry point here tries the active SIMD level and returns
//! `true` only when a vector kernel fully handled the call; `false` means
//! the caller must run its scalar pass. Dispatch is by `TypeId` on the
//! concrete [`Real`] type (`fftmatvec_numeric::simd::recast`; the four
//! precisions are a closed set) plus
//! [`fftmatvec_numeric::simd::active_level`].
//!
//! # What runs where
//!
//! At an AVX2-class level no pass inside `FftPlan::process*` or
//! `RealFftPlan::{forward, inverse}` executes outside an `avx2,fma`
//! context:
//!
//! * `f32`/`f64` stages of any radix with inner stride `s` of at least
//!   one register run lanes across `q` (the stride-`s` inner loop); a
//!   radix-2/4 first stage (`s == 1`) runs lanes across *butterflies* `p`
//!   and transposes its outputs in-register. A radix-16 pass (two fused
//!   radix-4 stages, `s ≥ 4`) runs lanes across `q` too, with its 16
//!   intermediates in registers.
//! * The padded forward's first stage (radix 2 or 4, `f32`/`f64`) runs
//!   lanes across butterflies like any first stage, loading its live
//!   operands from the caller's series (one vector load when the samples
//!   are contiguous, a gather at a stride) and holding the embedding's
//!   zero operands in a register; the unpadded inverse's last pass
//!   (radix 2, 4 or 16, `s` of at least one register) runs lanes across
//!   `q` and computes, scales and stores only the kept outputs.
//! * The batched padded R2C and unpadded C2R (`BatchedRealFft::
//!   {forward_padded, inverse_unpadded}`) of a group of 4 (`f64`) or 8
//!   (`f32`) consecutive series — radix-2/4 schedules up to the batch
//!   driver's crossover length — run with the **series in the lanes**
//!   ([`Lanes`]): a register holds one real or imaginary part of every
//!   series in the group, planar. The first stage loads TOSI rows `2j`
//!   and `2j + 1` as the real and imaginary planes of `z[j]` (rounded
//!   through the pad tier in the register, the embedding's zeros `+0`
//!   registers), every stage broadcasts one twiddle per butterfly from the
//!   plan's stage tables, the unpack / repack move to and from the
//!   series-major spectra through an in-register transpose, and the
//!   inverse's last stage stores the kept samples into the TOSI rows.
//! * The 16-bit tiers have radix-2/4 stride kernels only (`s ≥ 4`).
//! * `f32`/`f64` real-transform mirror-pair loops run lanes across `k`.
//! * Everything else — an odd-radix first stage, the 16-bit tiers' odd
//!   radices and first stage, remainders, scaling, Bluestein's chirps —
//!   is a scalar body defined through
//!   [`fma_pass`]: one source, instantiated once plainly (the portable
//!   level, and hosts without FMA) and once inside a
//!   `#[target_feature(enable = "avx2,fma")]` wrapper, where `mul_add`
//!   lowers to `vfmadd` instead of a call into libm.
//!
//! # Bit-identity
//!
//! The vector kernels replicate the scalar expression tree per element —
//! same adds/subs, same fused multiplies, same rounding points — and
//! lanes only ever run across independent outputs (butterflies, `q`,
//! mirror pairs, series), never along a sum, so nothing is reassociated and lane
//! width never changes a single output bit (the same contract as
//! [`fftmatvec_numeric::simd`], pinned by `tests/simd_equivalence.rs`).
//! Concretely:
//!
//! * `f32`/`f64` complex multiplies use the `cmul` helpers that encode
//!   `Complex::{Mul}` exactly (one unfused product, one FMA per part).
//! * The 16-bit tiers widen to `f32` registers and **round through
//!   storage after every operation** (`round8_f16`/`round8_bf16`),
//!   exactly where the emulated scalar arithmetic rounds.
//! * Conjugation and `∓i·h` are sign-bit XORs and lane swaps — exact,
//!   `−0` included.
//! * Remainder elements run the scalar butterfly functions themselves,
//!   inlined into the kernel.
//! * Both lowerings of a scalar `mul_add` (libm `fma`, `vfmadd`) are
//!   correctly rounded, so the two [`fma_pass`] instantiations agree.
//!
//! [`fma_pass`]: fftmatvec_numeric::fma_pass

#[cfg(target_arch = "x86_64")]
use fftmatvec_numeric::simd::{fma_active, recast, recast_mut};
use fftmatvec_numeric::{Complex, Real};

use crate::padded::{PaddedSeries, UnpaddedSeries};

#[cfg(target_arch = "x86_64")]
mod x86;

/// Dispatch one kernel call over the closed set of [`Real`] types:
/// `try_kernels!((inputs…), (outputs…), (extra args…); rows…)`. The first
/// row `(type, condition, kernel)` whose type *is* `T` and whose
/// condition holds runs its monomorphic kernel on the slices (recast to
/// the row's type) and returns `true` from the enclosing function. Every
/// caller states the extents its kernels rely on as an `assert!` just
/// above the invocation; the `SAFETY` comment below cites it.
#[cfg(target_arch = "x86_64")]
macro_rules! try_kernels {
    ($ins:tt, $outs:tt, $args:tt; $(($u:ty, $takes:expr, $kernel:path)),+ $(,)?) => {
        if fma_active() {
            $( try_kernels!(@row $ins, $outs, $args, $u, $takes, $kernel, true); )+
        }
    };
    (@row ($($src:ident),*), ($($dst:ident),*), ($($arg:expr),*),
     $u:ty, $takes:expr, $kernel:path, $ran:expr) => {
        if $takes {
            if let ($(Some($src),)* $(Some($dst),)*) = (
                $(recast::<_, Complex<$u>>($src),)*
                $(recast_mut::<_, Complex<$u>>($dst),)*
            ) {
                // SAFETY: avx2 and fma were verified on this host — by
                // `fma_active` just above, or by the `Lanes` token that
                // `run_lanes!`'s caller holds (made under it) — and the
                // caller's `assert!` established the slice extents the
                // kernel documents.
                unsafe { $kernel($($src,)* $($dst,)* $($arg),*) };
                return $ran;
            }
        }
    };
}

/// The one extent precondition of every stage kernel: a radix-`r` stage
/// reads `r·m·s` elements, writes as many, and owns `(r−1)·m` twiddles.
#[inline]
fn assert_stage_extents(r: usize, (src, dst, tw): (usize, usize, usize), m: usize, s: usize) {
    assert!(
        src == r * m * s && dst == src && tw == (r - 1) * m,
        "radix-{r} stage extents: src {src}, dst {dst}, twiddles {tw} for m = {m}, s = {s}"
    );
}

/// Vectorized radix-2 stage. Returns `false` if no vector kernel applies
/// (portable level, or a 16-bit tier below one register of stride).
#[allow(unused_variables)]
pub(crate) fn stage_radix2<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    m: usize,
    s: usize,
    twiddles: &[Complex<T>],
    inverse: bool,
) -> bool {
    assert_stage_extents(2, (src.len(), dst.len(), twiddles.len()), m, s);
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src, twiddles), (dst), (m, s, inverse);
        (f32, s == 1 || s >= 4, x86::ps::radix2),
        (f64, s == 1 || s >= 2, x86::pd::radix2),
        (fftmatvec_numeric::half::f16, s >= 4, x86::ps::radix2_f16),
        (fftmatvec_numeric::half::bf16, s >= 4, x86::ps::radix2_bf16),
    );
    false
}

/// Vectorized radix-4 stage; same contract as [`stage_radix2`].
#[allow(unused_variables)]
pub(crate) fn stage_radix4<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    m: usize,
    s: usize,
    twiddles: &[Complex<T>],
    inverse: bool,
) -> bool {
    assert_stage_extents(4, (src.len(), dst.len(), twiddles.len()), m, s);
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src, twiddles), (dst), (m, s, inverse);
        (f32, s == 1 || s >= 4, x86::ps::radix4),
        (f64, s == 1 || s >= 2, x86::pd::radix4),
        (fftmatvec_numeric::half::f16, s >= 4, x86::ps::radix4_f16),
        (fftmatvec_numeric::half::bf16, s >= 4, x86::ps::radix4_bf16),
    );
    false
}

/// Vectorized radix-16 pass: the radix-4 stages at strides `s` and `4s`
/// (sub-transform counts `4m` and `m`, twiddle tables `tw_a`, `tw_b`) in
/// one trip through memory. `f32` / `f64` only — the 16-bit plans never
/// fuse stages. Returns `false` if no vector kernel applies.
#[allow(unused_variables)]
pub(crate) fn pass_radix16<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    m: usize,
    s: usize,
    tw_a: &[Complex<T>],
    tw_b: &[Complex<T>],
    inverse: bool,
) -> bool {
    assert!(
        src.len() == 16 * m * s
            && dst.len() == src.len()
            && tw_a.len() == 12 * m
            && tw_b.len() == 3 * m,
        "radix-16 pass extents: src {}, dst {}, twiddles {} + {} for m = {m}, s = {s}",
        src.len(),
        dst.len(),
        tw_a.len(),
        tw_b.len()
    );
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src, tw_a, tw_b), (dst), (m, s, inverse);
        (f32, s >= 4, x86::ps::radix16),
        (f64, s >= 2, x86::pd::radix16),
    );
    false
}

/// Vectorized table-driven odd-radix stage (`r = roots.len()`, twiddles
/// in `p·(r−1) + (j−1)` order); same contract as [`stage_radix2`].
#[allow(unused_variables)]
pub(crate) fn stage_odd<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    m: usize,
    s: usize,
    twiddles: &[Complex<T>],
    roots: &[Complex<T>],
    inverse: bool,
) -> bool {
    assert!(roots.len() <= crate::plan::MAX_RADIX, "odd radix {} past MAX_RADIX", roots.len());
    assert_stage_extents(roots.len(), (src.len(), dst.len(), twiddles.len()), m, s);
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src, twiddles, roots), (dst), (m, s, inverse);
        (f32, s >= 4, x86::ps::radix_odd),
        (f64, s >= 2, x86::pd::radix_odd),
    );
    false
}

/// Vectorized first stage of a forward transform over a padded series,
/// radix 4 (`h = 4m`): operands `l < 2` are live packed values with both
/// samples present (`nt = h` is even), operands `l ≥ 2` the embedding's
/// zeros, held in a register instead of loaded. Returns `false` if no
/// vector kernel applies.
#[allow(unused_variables)]
pub(crate) fn first_radix4_padded<T: Real, P: Real>(
    src: &PaddedSeries<'_, P>,
    dst: &mut [Complex<T>],
    m: usize,
    twiddles: &[Complex<T>],
) -> bool {
    assert!(
        src.nt() == 4 * m && dst.len() == 4 * m && twiddles.len() == 3 * m,
        "padded radix-4 first stage extents: nt {}, dst {}, twiddles {} for m = {m}",
        src.nt(),
        dst.len(),
        twiddles.len()
    );
    #[cfg(target_arch = "x86_64")]
    try_kernels!((twiddles), (dst), (src, m);
        (f32, true, x86::ps::radix4_first_padded),
        (f64, true, x86::pd::radix4_first_padded),
    );
    false
}

/// Vectorized first stage of a forward transform over a padded series,
/// radix 2 (`h = 2m`): operand 0 is live, operand 1 the embedding's zero.
/// Same contract as [`first_radix4_padded`].
#[allow(unused_variables)]
pub(crate) fn first_radix2_padded<T: Real, P: Real>(
    src: &PaddedSeries<'_, P>,
    dst: &mut [Complex<T>],
    m: usize,
    twiddles: &[Complex<T>],
) -> bool {
    assert!(
        src.nt() == 2 * m && dst.len() == 2 * m && twiddles.len() == m,
        "padded radix-2 first stage extents: nt {}, dst {}, twiddles {} for m = {m}",
        src.nt(),
        dst.len(),
        twiddles.len()
    );
    #[cfg(target_arch = "x86_64")]
    try_kernels!((twiddles), (dst), (src, m);
        (f32, true, x86::ps::radix2_first_padded),
        (f64, true, x86::pd::radix2_first_padded),
    );
    false
}

/// Vectorized last stage of an inverse transform into an unpadded series,
/// radix 4 at stride `s` (`h = 4s`, `m = 1`): outputs `j < 2` hold the
/// kept samples and are scaled by `1/h` and stored through `sink`;
/// outputs `j ≥ 2` are never computed. Returns `false` if no vector
/// kernel applies (below one register of stride).
#[allow(unused_variables)]
pub(crate) fn last_radix4_unpadded<T: Real, Q: Real>(
    src: &[Complex<T>],
    sink: &mut UnpaddedSeries<Q>,
    s: usize,
    twiddles: &[Complex<T>],
) -> bool {
    assert!(
        src.len() == 4 * s && sink.nt() == 4 * s && twiddles.len() == 3,
        "unpadded radix-4 last stage extents: src {}, nt {}, twiddles {} for s = {s}",
        src.len(),
        sink.nt(),
        twiddles.len()
    );
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src, twiddles), (), (&mut *sink, s);
        (f32, s >= 4, x86::ps::radix4_last_unpadded),
        (f64, s >= 2, x86::pd::radix4_last_unpadded),
    );
    false
}

/// Vectorized last stage of an inverse transform into an unpadded series,
/// radix 2 at stride `s` (`h = 2s`): output 0 only. Same contract as
/// [`last_radix4_unpadded`].
#[allow(unused_variables)]
pub(crate) fn last_radix2_unpadded<T: Real, Q: Real>(
    src: &[Complex<T>],
    sink: &mut UnpaddedSeries<Q>,
    s: usize,
    twiddles: &[Complex<T>],
) -> bool {
    assert!(
        src.len() == 2 * s && sink.nt() == 2 * s && twiddles.len() == 1,
        "unpadded radix-2 last stage extents: src {}, nt {}, twiddles {} for s = {s}",
        src.len(),
        sink.nt(),
        twiddles.len()
    );
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src), (), (&mut *sink, s);
        (f32, s >= 4, x86::ps::radix2_last_unpadded),
        (f64, s >= 2, x86::pd::radix2_last_unpadded),
    );
    false
}

/// Vectorized last pass of an inverse transform into an unpadded series,
/// radix 16 (stages at strides `s` and `4s`, `h = 16s`): second-layer
/// outputs `j' < 2` only. Same contract as [`last_radix4_unpadded`].
#[allow(unused_variables)]
pub(crate) fn last_radix16_unpadded<T: Real, Q: Real>(
    src: &[Complex<T>],
    sink: &mut UnpaddedSeries<Q>,
    s: usize,
    tw_a: &[Complex<T>],
    tw_b: &[Complex<T>],
) -> bool {
    assert!(
        src.len() == 16 * s && sink.nt() == 16 * s && tw_a.len() == 12 && tw_b.len() == 3,
        "unpadded radix-16 last pass extents: src {}, nt {}, twiddles {} + {} for s = {s}",
        src.len(),
        sink.nt(),
        tw_a.len(),
        tw_b.len()
    );
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src, tw_a, tw_b), (), (&mut *sink, s);
        (f32, s >= 4, x86::ps::radix16_last_unpadded),
        (f64, s >= 2, x86::pd::radix16_last_unpadded),
    );
    false
}

/// Vectorized mirror-pair loop of the R2C unpack: for every `k` with
/// `0 < 2k < h` (`h = z.len()`), `output[k]` and `output[h − k]` from
/// `z[k]`, `z[h − k]` and `twiddles[k]` — see
/// [`crate::real::unpack_pair`]. Returns `false` if unhandled.
#[allow(unused_variables)]
pub(crate) fn real_unpack_pairs<T: Real>(
    z: &[Complex<T>],
    twiddles: &[Complex<T>],
    output: &mut [Complex<T>],
) -> bool {
    let h = z.len();
    assert!(twiddles.len() == h && output.len() == h + 1, "R2C unpack extents");
    #[cfg(target_arch = "x86_64")]
    try_kernels!((z, twiddles), (output), ();
        (f32, true, x86::ps::real_unpack_pairs),
        (f64, true, x86::pd::real_unpack_pairs),
    );
    false
}

/// Vectorized mirror-pair loop of the C2R repack: `z[k]` and `z[h − k]`
/// from `spectrum[k]`, `spectrum[h − k]` and `twiddles[k]` — see
/// [`crate::real::repack_pair`]. Returns `false` if unhandled.
#[allow(unused_variables)]
pub(crate) fn real_repack_pairs<T: Real>(
    spectrum: &[Complex<T>],
    twiddles: &[Complex<T>],
    z: &mut [Complex<T>],
) -> bool {
    let h = z.len();
    assert!(twiddles.len() == h && spectrum.len() == h + 1, "C2R repack extents");
    #[cfg(target_arch = "x86_64")]
    try_kernels!((spectrum, twiddles), (z), ();
        (f32, true, x86::ps::real_repack_pairs),
        (f64, true, x86::pd::real_repack_pairs),
    );
    false
}

/// Run one series-in-lanes kernel: `run_lanes!((inputs…), (outputs…),
/// (extra args…); f32 kernel, f64 kernel)` — a [`try_kernels!`] row per
/// tier, with no level check: a [`Lanes`] token in scope proves the host
/// can run it, whatever the level is now.
#[cfg(target_arch = "x86_64")]
macro_rules! run_lanes {
    ($ins:tt, $outs:tt, $args:tt; $ps:path, $pd:path) => {
        try_kernels!(@row $ins, $outs, $args, f32, true, $ps, ());
        try_kernels!(@row $ins, $outs, $args, f64, true, $pd, ());
    };
}

/// Proof that the series-in-lanes kernels run here, and their group width
/// in tier `T`: 8 series in `f32`, 4 in `f64`, one per real lane. Made
/// only at an AVX2-class active level ([`Lanes::of`]); the kernels need
/// only the host's support, which a later change of the level does not
/// revoke, so a path chosen with a token runs to its end.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lanes {
    width: usize,
}

impl Lanes {
    /// The token for tier `T` at the active level: `None` at the
    /// portable level and in the 16-bit tiers.
    pub(crate) fn of<T: Real>() -> Option<Lanes> {
        #[cfg(target_arch = "x86_64")]
        if fma_active() {
            let width = match T::PRECISION {
                fftmatvec_numeric::Precision::Single => 8,
                fftmatvec_numeric::Precision::Double => 4,
                _ => return None,
            };
            return Some(Lanes { width });
        }
        None
    }

    /// Series per group.
    pub(crate) fn width(self) -> usize {
        self.width
    }

    /// Complex slots of `elements` planar elements: `width` each (see
    /// `x86`'s planar layout).
    fn planar(self, elements: usize) -> usize {
        self.width * elements
    }
}

/// Series-in-lanes radix-2/4 stage over planar buffers: the stage of
/// [`stage_radix2`] / [`stage_radix4`] run for each of the group's series
/// in its own lane.
#[allow(unused_variables)]
pub(crate) fn lanes_stage<T: Real>(
    lanes: Lanes,
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    r: usize,
    m: usize,
    s: usize,
    twiddles: &[Complex<T>],
    inverse: bool,
) {
    assert!(
        (r == 2 || r == 4)
            && src.len() == lanes.planar(r * m * s)
            && dst.len() == src.len()
            && twiddles.len() == (r - 1) * m,
        "lanes radix-{r} stage extents: src {}, dst {}, twiddles {} for m = {m}, s = {s}",
        src.len(),
        dst.len(),
        twiddles.len()
    );
    #[cfg(target_arch = "x86_64")]
    run_lanes!((src, twiddles), (dst), (r, m, s, inverse);
        x86::ps::lanes_stage, x86::pd::lanes_stage);
    unreachable!("no lanes token in tier {:?}", T::PRECISION)
}

/// Series-in-lanes first stage of the forward transforms of a group of
/// padded series read in place — series `k` of the group is column `k` of
/// `src`'s rows — into a planar buffer: the stage of
/// [`first_radix4_padded`] / [`first_radix2_padded`] per lane.
#[allow(unused_variables)]
pub(crate) fn lanes_first_padded<T: Real, P: Real>(
    lanes: Lanes,
    src: &PaddedSeries<'_, P>,
    dst: &mut [Complex<T>],
    r: usize,
    m: usize,
    twiddles: &[Complex<T>],
) {
    assert!(
        (r == 2 || r == 4)
            && src.nt() == r * m
            && (src.nt() - 1) * src.stride() + lanes.width() <= src.extent()
            && dst.len() == lanes.planar(r * m)
            && twiddles.len() == (r - 1) * m,
        "lanes padded radix-{r} first stage extents: nt {}, stride {}, dst {}, twiddles {} for m = {m}",
        src.nt(),
        src.stride(),
        dst.len(),
        twiddles.len()
    );
    #[cfg(target_arch = "x86_64")]
    run_lanes!((twiddles), (dst), (src, r, m);
        x86::ps::lanes_first_padded, x86::pd::lanes_first_padded);
    unreachable!("no lanes token in tier {:?}", T::PRECISION)
}

/// Series-in-lanes last stage (`m = 1`) of the inverse transforms of a
/// group into its unpadded rows — series `k` of the group lands in column
/// `k` of `sink`'s rows: the stage of [`last_radix4_unpadded`] /
/// [`last_radix2_unpadded`] per lane.
///
/// # Safety
///
/// `sink` was made for `nt` rows of `lanes.width()` columns:
/// `out.add(t·stride + k)` is valid for writes for every `t < nt` and `k <
/// lanes.width()`, and nothing else accesses them during the call.
#[allow(unused_variables)]
pub(crate) unsafe fn lanes_last_unpadded<T: Real, Q: Real>(
    lanes: Lanes,
    src: &[Complex<T>],
    sink: &mut UnpaddedSeries<Q>,
    r: usize,
    s: usize,
    twiddles: &[Complex<T>],
) {
    assert!(
        (r == 2 || r == 4)
            && src.len() == lanes.planar(r * s)
            && sink.nt() == r * s
            && sink.stride() >= lanes.width()
            && twiddles.len() == r - 1,
        "lanes unpadded radix-{r} last stage extents: src {}, nt {}, stride {}, twiddles {} for s = {s}",
        src.len(),
        sink.nt(),
        sink.stride(),
        twiddles.len()
    );
    #[cfg(target_arch = "x86_64")]
    run_lanes!((src, twiddles), (), (&mut *sink, r, s);
        x86::ps::lanes_last_unpadded, x86::pd::lanes_last_unpadded);
    unreachable!("no lanes token in tier {:?}", T::PRECISION)
}

/// Series-in-lanes R2C unpack: the `h + 1` bins of each of the group's
/// series from the planar `Z = FFT_h(z)`, staged in the planar `bins` and
/// stored into the series-major spectra `output` — [`real_unpack_pairs`]'
/// tree per lane.
#[allow(unused_variables)]
pub(crate) fn lanes_unpack<T: Real>(
    lanes: Lanes,
    z: &[Complex<T>],
    twiddles: &[Complex<T>],
    bins: &mut [Complex<T>],
    output: &mut [Complex<T>],
) {
    let h = twiddles.len();
    assert!(
        z.len() == lanes.planar(h)
            && bins.len() == lanes.planar(h + 1)
            && output.len() == bins.len(),
        "lanes R2C unpack extents: z {}, bins {}, output {} for h = {h}",
        z.len(),
        bins.len(),
        output.len()
    );
    #[cfg(target_arch = "x86_64")]
    run_lanes!((z, twiddles), (bins, output), ();
        x86::ps::lanes_unpack, x86::pd::lanes_unpack);
    unreachable!("no lanes token in tier {:?}", T::PRECISION)
}

/// Series-in-lanes C2R repack: the series-major spectra of the group,
/// staged in the planar `bins`, into the planar `Z` of each series' packed
/// signal — [`real_repack_pairs`]' tree per lane.
#[allow(unused_variables)]
pub(crate) fn lanes_repack<T: Real>(
    lanes: Lanes,
    spectra: &[Complex<T>],
    twiddles: &[Complex<T>],
    bins: &mut [Complex<T>],
    z: &mut [Complex<T>],
) {
    let h = twiddles.len();
    assert!(
        z.len() == lanes.planar(h)
            && bins.len() == lanes.planar(h + 1)
            && spectra.len() == bins.len(),
        "lanes C2R repack extents: spectra {}, bins {}, z {} for h = {h}",
        spectra.len(),
        bins.len(),
        z.len()
    );
    #[cfg(target_arch = "x86_64")]
    run_lanes!((spectra, twiddles), (bins, z), ();
        x86::ps::lanes_repack, x86::pd::lanes_repack);
    unreachable!("no lanes token in tier {:?}", T::PRECISION)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The extents the unsafe kernels trust are checked on every call,
    /// at every level, before any dispatch.
    #[test]
    #[should_panic(expected = "radix-4 stage extents")]
    fn stage_with_a_short_twiddle_table_is_rejected() {
        let src = vec![Complex::<f64>::zero(); 16];
        let mut dst = src.clone();
        let tw = vec![Complex::<f64>::zero(); 11]; // 3·m = 12 for m = 4
        stage_radix4(&src, &mut dst, 4, 1, &tw, false);
    }

    #[test]
    #[should_panic(expected = "radix-2 stage extents")]
    fn stage_with_a_short_destination_is_rejected() {
        let src = vec![Complex::<f32>::zero(); 16];
        let mut dst = vec![Complex::<f32>::zero(); 15];
        let tw = vec![Complex::<f32>::zero(); 2];
        stage_radix2(&src, &mut dst, 2, 4, &tw, false);
    }
}
