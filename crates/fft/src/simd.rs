//! Instruction-level dispatch for every pass the FFT makes over its data:
//! vector kernels for the butterflies, the real-transform mirror loops
//! and Bluestein's pointwise multiply, and [`fma_pass`] (defined in
//! `fftmatvec_numeric::simd`, where every crate finds it) for the scalar
//! loops that remain.
//!
//! Each `bool` entry point here tries the active SIMD level and returns
//! `true` only when a vector kernel fully handled the call; `false` means
//! the caller must run its scalar pass. Dispatch is by `TypeId` on the
//! concrete [`Real`] type (the four precisions are a closed set) plus
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
//! mirror pairs), never along a sum, so nothing is reassociated and lane
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

#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "x86_64")]
mod dispatch {
    use core::any::TypeId;

    use fftmatvec_numeric::{Complex, Real};

    /// Reinterpret a generic complex slice as its concrete type, if `T`
    /// *is* `U` (then the cast is the identity and trivially sound).
    pub(super) fn cast<T: Real, U: Real>(v: &[Complex<T>]) -> Option<&[Complex<U>]> {
        (TypeId::of::<T>() == TypeId::of::<U>()).then(|| {
            // SAFETY: T == U was just checked; same layout, same lifetime.
            unsafe { core::slice::from_raw_parts(v.as_ptr() as *const Complex<U>, v.len()) }
        })
    }

    /// Mutable variant of [`cast`].
    pub(super) fn cast_mut<T: Real, U: Real>(v: &mut [Complex<T>]) -> Option<&mut [Complex<U>]> {
        (TypeId::of::<T>() == TypeId::of::<U>()).then(|| {
            // SAFETY: as above; the exclusive borrow transfers.
            unsafe { core::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut Complex<U>, v.len()) }
        })
    }
}

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
            $( try_kernels!(@row $ins, $outs, $args, $u, $takes, $kernel); )+
        }
    };
    (@row ($($src:ident),*), ($($dst:ident),*), ($($arg:expr),*),
     $u:ty, $takes:expr, $kernel:path) => {
        if $takes {
            if let ($(Some($src),)* $(Some($dst),)*) = (
                $(dispatch::cast::<T, $u>($src),)*
                $(dispatch::cast_mut::<T, $u>($dst),)*
            ) {
                // SAFETY: `fma_active` implies `level_supported(Avx2)`
                // (avx2 and fma verified), and the caller's `assert!`
                // established the slice extents the kernel documents.
                unsafe { $kernel($($src,)* $($dst,)* $($arg),*) };
                return true;
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
        (fftmatvec_numeric::half::f16, s >= 4, x86::radix2_f16),
        (fftmatvec_numeric::half::bf16, s >= 4, x86::radix2_bf16),
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
        (fftmatvec_numeric::half::f16, s >= 4, x86::radix4_f16),
        (fftmatvec_numeric::half::bf16, s >= 4, x86::radix4_bf16),
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

/// Vectorized pointwise complex multiply `a[i] *= b[i]` (Bluestein's
/// frequency-domain convolution). Returns `false` if unhandled.
#[allow(unused_variables)]
pub(crate) fn pointwise_mul_assign<T: Real>(a: &mut [Complex<T>], b: &[Complex<T>]) -> bool {
    assert_eq!(a.len(), b.len(), "pointwise multiply length mismatch");
    #[cfg(target_arch = "x86_64")]
    try_kernels!((b), (a), ();
        (f32, true, x86::ps::pointwise_mul),
        (f64, true, x86::pd::pointwise_mul),
        (fftmatvec_numeric::half::f16, true, x86::pointwise_mul_f16),
        (fftmatvec_numeric::half::bf16, true, x86::pointwise_mul_bf16),
    );
    false
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
