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
//! concrete [`Real`] type (`Source::tier` / `Sink::tier_mut`, which
//! recast a slice through `fftmatvec_numeric::simd::recast`; the four
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
//! * Every radix-2/4/16 stage body reads an operand source and writes an
//!   output sink (`crate::padded::{Source, Sink}`): a slice, or, for the
//!   padded forward's first stage, a series of the caller's TOSI matrix
//!   (one vector load when the samples are contiguous, a gather at a
//!   stride, the embedding's zero operands a register), and for the
//!   unpadded inverse's last pass (`m = 1`, `s` of at least one register)
//!   a series the kept outputs are scaled and stored into, the dropped
//!   ones never computed.
//! * The batched padded R2C and unpadded C2R (`BatchedRealFft::
//!   {forward_padded, inverse_unpadded}`) of a group of 4 (`f64`) or 8
//!   (`f32`) consecutive series — radix-2/4 schedules up to 16 384
//!   points, the batch driver's crossover length — run with the **series
//!   in the lanes** ([`Lanes`]): a register holds one real or imaginary
//!   part of every series in the group, planar. The same stage body reads
//!   TOSI rows `2j` and `2j + 1` as the real and imaginary planes of
//!   `z[j]` in the first stage (rounded through the pad tier in the
//!   register, the embedding's zeros `+0` registers) and stores the kept
//!   samples into the TOSI rows in the inverse's last stage; every stage
//!   broadcasts one twiddle per butterfly from the plan's stage tables,
//!   and the unpack / repack move to and from the series-major spectra
//!   through an in-register transpose.
//! * The 16-bit tiers have radix-2/4 stride kernels only (`s ≥ 4`).
//! * `f32`/`f64` real-transform mirror-pair loops run lanes across `k`.
//! * Everything else — an odd-radix first stage, the 16-bit tiers' odd
//!   radices and first stage, remainders, scaling, Bluestein's chirps — is
//!   a scalar body defined through [`fma_pass`]: one source over slices,
//!   instantiated once plainly (the portable level, and hosts without FMA)
//!   and once inside a `#[target_feature(enable = "avx2,fma")]` wrapper,
//!   where `mul_add` lowers to `vfmadd` instead of a call into libm. A
//!   padded first pass that no kernel takes is gathered into a slice
//!   before it runs, and an unpadded last pass that no kernel takes runs
//!   into a slice that is then stored into the series.
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
use fftmatvec_numeric::simd::fma_active;
use fftmatvec_numeric::{Complex, Real};

use crate::padded::{Operands, Outputs, Sink, Source};

#[cfg(target_arch = "x86_64")]
mod x86;

/// Dispatch one kernel call over the closed set of [`Real`] types:
/// `try_kernels!((sources…), (sinks…), (extra args…); rows…)`. The first
/// row `(type, condition, kernel)` whose type *is* `T` and whose
/// condition holds runs its monomorphic kernel on the sources and sinks
/// (each in the row's tier: a slice recast, a padded or unpadded series
/// as it is) and returns `true` from the enclosing function. Every caller
/// states the extents its kernels rely on as an `assert!` just above the
/// invocation; the `SAFETY` comment below cites it.
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
                $($src.tier::<$u>(),)*
                $($dst.tier_mut::<$u>(),)*
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
/// reads `r·m·s` operands, writes as many, and owns `(r−1)·m` twiddles;
/// a padded source is read by a first stage (`s = 1`) and an unpadded
/// sink written by a last one (`m = 1`), whose output rows are the kept
/// and dropped halves.
#[inline]
fn assert_stage_extents<T: Real, S: Source<T> + ?Sized, D: Sink<T> + ?Sized>(
    r: usize,
    (src, dst, tw): (&S, &mut D, usize),
    m: usize,
    s: usize,
) {
    let (reads, writes) = (src.len(), dst.len());
    let first = s == 1 || matches!(src.operands(), Operands::Slice(_));
    let last = m == 1 || matches!(dst.outputs(), Outputs::Slice(_));
    assert!(
        reads == r * m * s && writes == reads && tw == (r - 1) * m && first && last,
        "radix-{r} stage extents: src {reads}, dst {writes}, twiddles {tw} for m = {m}, s = {s}"
    );
}

/// Vectorized radix-2 stage from `src` into `dst`. Returns `false` if no
/// vector kernel applies (portable level, or a 16-bit tier below one
/// register of stride or over a padded or unpadded series).
#[allow(unused_variables)]
pub(crate) fn stage_radix2<T: Real, S: Source<T> + ?Sized, D: Sink<T> + ?Sized>(
    src: &S,
    dst: &mut D,
    m: usize,
    s: usize,
    twiddles: &[Complex<T>],
    inverse: bool,
) -> bool {
    assert_stage_extents(2, (src, &mut *dst, twiddles.len()), m, s);
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src, twiddles), (dst), (m, s, inverse);
        (f32, s == 1 || s >= 4, x86::ps::radix2),
        (f64, s == 1 || s >= 2, x86::pd::radix2),
    );
    #[cfg(target_arch = "x86_64")]
    if let (Operands::Slice(src), Outputs::Slice(dst)) = (src.operands(), dst.outputs()) {
        try_kernels!((src, twiddles), (dst), (m, s, inverse);
            (fftmatvec_numeric::half::f16, s >= 4, x86::ps::radix2_f16),
            (fftmatvec_numeric::half::bf16, s >= 4, x86::ps::radix2_bf16),
        );
    }
    false
}

/// Vectorized radix-4 stage; same contract as [`stage_radix2`].
#[allow(unused_variables)]
pub(crate) fn stage_radix4<T: Real, S: Source<T> + ?Sized, D: Sink<T> + ?Sized>(
    src: &S,
    dst: &mut D,
    m: usize,
    s: usize,
    twiddles: &[Complex<T>],
    inverse: bool,
) -> bool {
    assert_stage_extents(4, (src, &mut *dst, twiddles.len()), m, s);
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src, twiddles), (dst), (m, s, inverse);
        (f32, s == 1 || s >= 4, x86::ps::radix4),
        (f64, s == 1 || s >= 2, x86::pd::radix4),
    );
    #[cfg(target_arch = "x86_64")]
    if let (Operands::Slice(src), Outputs::Slice(dst)) = (src.operands(), dst.outputs()) {
        try_kernels!((src, twiddles), (dst), (m, s, inverse);
            (fftmatvec_numeric::half::f16, s >= 4, x86::ps::radix4_f16),
            (fftmatvec_numeric::half::bf16, s >= 4, x86::ps::radix4_bf16),
        );
    }
    false
}

/// Vectorized radix-16 pass: the radix-4 stages at strides `s` and `4s`
/// (sub-transform counts `4m` and `m`, twiddle tables `tw_a`, `tw_b`) in
/// one trip through memory. `f32` / `f64` only — the 16-bit plans never
/// fuse stages. Returns `false` if no vector kernel applies.
#[allow(unused_variables)]
pub(crate) fn pass_radix16<T: Real, S: Source<T> + ?Sized, D: Sink<T> + ?Sized>(
    src: &S,
    dst: &mut D,
    m: usize,
    s: usize,
    tw_a: &[Complex<T>],
    tw_b: &[Complex<T>],
    inverse: bool,
) -> bool {
    assert_stage_extents(16, (src, &mut *dst, tw_a.len() + tw_b.len()), m, s);
    assert!(tw_b.len() == 3 * m, "radix-16 pass extents: {} second-layer twiddles", tw_b.len());
    #[cfg(target_arch = "x86_64")]
    try_kernels!((src, tw_a, tw_b), (dst), (m, s, inverse);
        (f32, s >= 4, x86::ps::radix16),
        (f64, s >= 2, x86::pd::radix16),
    );
    false
}

/// Vectorized table-driven odd-radix stage (`r = roots.len()`, twiddles
/// in `p·(r−1) + (j−1)` order), slices only; same contract as
/// [`stage_radix2`].
#[allow(unused_variables)]
pub(crate) fn stage_odd<T: Real, S: Source<T> + ?Sized, D: Sink<T> + ?Sized>(
    src: &S,
    dst: &mut D,
    m: usize,
    s: usize,
    twiddles: &[Complex<T>],
    roots: &[Complex<T>],
    inverse: bool,
) -> bool {
    assert!(roots.len() <= crate::plan::MAX_RADIX, "odd radix {} past MAX_RADIX", roots.len());
    assert_stage_extents(roots.len(), (src, &mut *dst, twiddles.len()), m, s);
    #[cfg(target_arch = "x86_64")]
    if let (Operands::Slice(src), Outputs::Slice(dst)) = (src.operands(), dst.outputs()) {
        try_kernels!((src, twiddles, roots), (dst), (m, s, inverse);
            (f32, s >= 4, x86::ps::radix_odd),
            (f64, s >= 2, x86::pd::radix_odd),
        );
    }
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

/// Series-in-lanes radix-2/4 stage: the stage of [`stage_radix2`] /
/// [`stage_radix4`] run for each of the group's series in its own lane.
/// A slice is a planar buffer; a padded source reads the group's
/// `lanes.width()` adjacent columns of its rows (the first stage), an
/// unpadded sink writes them (the last stage, `m = 1`).
#[allow(unused_variables)]
pub(crate) fn lanes_stage<T: Real, S: Source<T> + ?Sized, D: Sink<T> + ?Sized>(
    lanes: Lanes,
    src: &S,
    dst: &mut D,
    r: usize,
    m: usize,
    s: usize,
    twiddles: &[Complex<T>],
    inverse: bool,
) {
    let n = r * m * s;
    let reads = match src.operands() {
        Operands::Slice(x) => x.len() == lanes.planar(n),
        Operands::Padded(x) => x.nt() == n && (n - 1) * x.stride() + lanes.width() <= x.extent(),
    };
    let writes = match dst.outputs() {
        Outputs::Slice(x) => x.len() == lanes.planar(n),
        Outputs::Unpadded(x) => x.nt() == n && m == 1 && x.cols() >= lanes.width(),
    };
    assert!(
        (r == 2 || r == 4) && reads && writes && twiddles.len() == (r - 1) * m,
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
        let src = [Complex::<f64>::zero(); 16];
        let mut dst = src;
        let tw = [Complex::<f64>::zero(); 11]; // 3·m = 12 for m = 4
        stage_radix4(&src[..], &mut dst[..], 4, 1, &tw, false);
    }

    #[test]
    #[should_panic(expected = "radix-2 stage extents")]
    fn stage_with_a_short_destination_is_rejected() {
        let src = [Complex::<f32>::zero(); 16];
        let mut dst = [Complex::<f32>::zero(); 15];
        let tw = [Complex::<f32>::zero(); 2];
        stage_radix2(&src[..], &mut dst[..], 2, 4, &tw, false);
    }
}
