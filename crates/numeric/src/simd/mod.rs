//! Runtime-dispatched SIMD kernels behind a portable scalar fallback.
//!
//! The paper's speed claim for the 16-bit tiers rests on vector hardware:
//! half the bytes moved *and* more elements per arithmetic instruction.
//! This module is the CPU-side realization and the one home of the
//! workspace's vector primitives: the batched `f16`/`bf16` ↔ `f32`
//! conversion kernels, the pointwise complex multiply
//! ([`pointwise_mul_assign`]), the complex-register vocabulary ([`x86`])
//! that the FFT butterflies and the SBGEMV tile sweep are written in, and
//! the `TypeId` recast ([`recast`]) by which a generic kernel reaches its
//! monomorphic vector body.
//!
//! # Dispatch model
//!
//! There are two levels: the portable scalar kernels, and AVX2 + FMA on
//! x86-64 (the `std::arch` paths are compiled on that target only). The
//! level is detected **once**, on first use, and cached
//! ([`active_level`]): AVX2 + FMA if the host has both, else portable.
//! The `FFTMATVEC_SIMD` environment variable overrides it (`portable`,
//! `avx2`, or `auto`). Malformed or unsupported values **panic** — a
//! silently ignored override would run kernels at the wrong width
//! unnoticed, the same failure mode the vendored pool guards against for
//! `RAYON_NUM_THREADS`. Tests and benchmarks can force a level
//! programmatically with [`set_active_level`].
//!
//! # Bit-identity contract
//!
//! Every vectorized kernel produces **bit-for-bit** the same results as
//! its portable scalar counterpart, for every input including NaNs,
//! infinities, signed zeros, and subnormals. This is why the conversion
//! kernels re-implement the scalar rounding algorithms with integer SIMD
//! instead of using F16C (`vcvtps2ph` differs from
//! [`crate::half::f32_to_f16_bits`] on NaN payloads), and why the
//! arithmetic kernels never reassociate reductions: lane width, like
//! thread count, must not change results. The equivalence is pinned by
//! exhaustive and property tests (`tests/simd_equivalence.rs`) and by
//! the differential oracle running identically at any level.

pub mod portable;
#[cfg(target_arch = "x86_64")]
pub mod x86;

use core::any::TypeId;
use core::fmt;
use core::sync::atomic::{AtomicU8, Ordering};

use crate::complex::Complex;
use crate::half::{bf16, f16};
use crate::real::Real;

/// Instruction-set level the dispatched kernels run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Scalar reference kernels; always available, always the fallback.
    Portable,
    /// 256-bit AVX2 + FMA (x86-64).
    Avx2,
}

impl SimdLevel {
    /// Lower-case name, matching the `FFTMATVEC_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parse a `FFTMATVEC_SIMD` value (case-insensitive). `None` for
    /// unknown strings; `auto` is handled by the caller.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.to_ascii_lowercase().as_str() {
            "portable" | "scalar" => Some(SimdLevel::Portable),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// 0 = not yet initialized; otherwise `encode(level)`.
static LEVEL: AtomicU8 = AtomicU8::new(0);

fn encode(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Portable => 1,
        SimdLevel::Avx2 => 2,
    }
}

fn decode(v: u8) -> SimdLevel {
    match v {
        1 => SimdLevel::Portable,
        2 => SimdLevel::Avx2,
        _ => unreachable!("invalid SimdLevel encoding {v}"),
    }
}

/// Can `level` run on this host?
pub fn level_supported(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Portable => true,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => false,
    }
}

/// Widest supported level on this host (ignoring any override).
pub fn detected_level() -> SimdLevel {
    if level_supported(SimdLevel::Avx2) {
        SimdLevel::Avx2
    } else {
        SimdLevel::Portable
    }
}

fn init_level() -> SimdLevel {
    match std::env::var("FFTMATVEC_SIMD") {
        Ok(v) if !v.trim().is_empty() && !v.trim().eq_ignore_ascii_case("auto") => {
            let v = v.trim();
            let level = SimdLevel::parse(v).unwrap_or_else(|| {
                panic!(
                    "FFTMATVEC_SIMD={v:?} is not a valid SIMD level \
                     (expected auto, portable, or avx2)"
                )
            });
            assert!(
                level_supported(level),
                "FFTMATVEC_SIMD={v:?}: level `{level}` is not supported on this host \
                 (detected `{}`)",
                detected_level(),
            );
            level
        }
        _ => detected_level(),
    }
}

/// The dispatch level the kernels currently run at. Resolved once (env
/// override, then hardware detection) and cached.
pub fn active_level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => {
            let level = init_level();
            LEVEL.store(encode(level), Ordering::Relaxed);
            level
        }
        v => decode(v),
    }
}

/// Force the dispatch level; returns the previous one so callers can
/// restore it. Intended for the forced-fallback tests and the
/// SIMD-vs-scalar benchmark gate. Panics if `level` cannot run here.
///
/// The level is process-global: concurrent tests that flip it must
/// serialize (the equivalence suites share a mutex for this).
pub fn set_active_level(level: SimdLevel) -> SimdLevel {
    assert!(
        level_supported(level),
        "cannot force SIMD level `{level}`: not supported on this host"
    );
    let prev = active_level();
    LEVEL.store(encode(level), Ordering::Relaxed);
    prev
}

/// Does the active level execute `avx2,fma` code? `true` implies
/// [`level_supported`]`(Avx2)`, i.e. avx2 and fma were verified on this
/// host — the precondition of every `#[target_feature(enable =
/// "avx2,fma")]` entry point in the workspace, [`fma_pass!`](crate::fma_pass)'s
/// included.
#[inline]
pub fn fma_active() -> bool {
    active_level() == SimdLevel::Avx2
}

/// Define a scalar pass `fn name<T: Bound>(args…) [-> R]` whose one body
/// is instantiated twice: plainly, and inside an `avx2,fma` wrapper taken
/// whenever [`fma_active`](crate::simd::fma_active). The workspace is not
/// built with `+fma`, so outside such a wrapper every scalar `mul_add` is
/// a *call* into libm `fma`; inside it is one `vfmadd`. Both lowerings
/// are correctly rounded, so the two instantiations agree on every bit.
///
/// Everything the body calls must be `#[inline(always)]` (the `Real` /
/// `Complex` / `Scalar` arithmetic is) so that it is compiled in the
/// wrapper's context. Each bound is one trait path (`Real`, `Scalar`),
/// optionally after `?Sized +`; a pass may take several type parameters
/// (`<T: Real, P: Real>`, `<T: Real, S: ?Sized + Source<T>>`).
#[macro_export]
macro_rules! fma_pass {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident<$($T:ident: $(?$unsized:ident +)? $bound:path),+>(
            $($arg:ident: $ty:ty),* $(,)?
        ) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name<$($T: $(?$unsized +)? $bound),+>($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body<$($T: $(?$unsized +)? $bound),+>($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,fma")]
                unsafe fn fma<$($T: $(?$unsized +)? $bound),+>($($arg: $ty),*) $(-> $ret)? {
                    body($($arg),*)
                }
                if $crate::simd::fma_active() {
                    // SAFETY: `fma_active` implies `level_supported(Avx2)`,
                    // which verified avx2 and fma on this host.
                    return unsafe { fma($($arg),*) };
                }
            }
            body($($arg),*)
        }
    };
}

macro_rules! dispatch_conversion {
    ($name:ident, $with:ident, $src:ty, $dst:ty, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Bit-for-bit identical to the per-element scalar conversion at
        /// every dispatch level.
        pub fn $name(src: &[$src], dst: &mut [$dst]) {
            $with(active_level(), src, dst);
        }

        /// Same kernel at an explicit [`SimdLevel`] (equivalence tests
        /// and the benchmark gate). Panics on length mismatch.
        pub fn $with(level: SimdLevel, src: &[$src], dst: &mut [$dst]) {
            assert_eq!(src.len(), dst.len(), "conversion kernel length mismatch");
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => {
                    // SAFETY: levels above Portable are only reachable
                    // through `level_supported`, which verified avx2+fma.
                    unsafe { x86::$name(src, dst) }
                }
                _ => portable::$name(src, dst),
            }
        }
    };
}

dispatch_conversion!(
    widen_f16_to_f32,
    widen_f16_to_f32_with,
    f16,
    f32,
    "Batched exact widening `f16 → f32` over whole buffers."
);
dispatch_conversion!(
    narrow_f32_to_f16,
    narrow_f32_to_f16_with,
    f32,
    f16,
    "Batched RTNE narrowing `f32 → f16` over whole buffers."
);
dispatch_conversion!(
    widen_bf16_to_f32,
    widen_bf16_to_f32_with,
    bf16,
    f32,
    "Batched exact widening `bf16 → f32` over whole buffers."
);
dispatch_conversion!(
    narrow_f32_to_bf16,
    narrow_f32_to_bf16_with,
    f32,
    bf16,
    "Batched RTNE narrowing `f32 → bf16` over whole buffers."
);

/// `v` as a slice of `U`, if `S` *is* `U` (then the cast is the identity
/// and trivially sound). This is how a generic kernel entry point reaches
/// the monomorphic vector body of its concrete type; the set of types is
/// closed, so a `TypeId` comparison is the whole dispatch.
pub fn recast<S: 'static, U: 'static>(v: &[S]) -> Option<&[U]> {
    (TypeId::of::<S>() == TypeId::of::<U>()).then(|| {
        // SAFETY: S == U was just checked; same layout, same lifetime.
        unsafe { core::slice::from_raw_parts(v.as_ptr() as *const U, v.len()) }
    })
}

/// Mutable variant of [`recast`].
pub fn recast_mut<S: 'static, U: 'static>(v: &mut [S]) -> Option<&mut [U]> {
    (TypeId::of::<S>() == TypeId::of::<U>()).then(|| {
        // SAFETY: as above; the exclusive borrow transfers.
        unsafe { core::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut U, v.len()) }
    })
}

/// One value variant of [`recast`].
pub fn recast_one<S: Copy + 'static, U: Copy + 'static>(v: S) -> Option<U> {
    recast::<S, U>(core::slice::from_ref(&v)).map(|s| s[0])
}

/// Pointwise complex multiply `a[i] *= b[i]`, or `a[i] *= conj(b[i])`
/// when `conj` — Bluestein's convolution and the multi-level Toeplitz
/// symbol multiply. At the AVX2 level every tier runs a vector kernel
/// ([`x86::ps::pointwise_mul`] and its siblings); otherwise the scalar
/// loop, as a [`fma_pass!`](crate::fma_pass). Bit-identical to
/// `*g *= s` (`*g *= s.conj()`) at every level: conjugation is a sign
/// XOR, and the 16-bit kernels round through storage where the emulated
/// arithmetic does. Panics on a length mismatch.
pub fn pointwise_mul_assign<T: Real>(a: &mut [Complex<T>], b: &[Complex<T>], conj: bool) {
    assert_eq!(a.len(), b.len(), "pointwise multiply length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fma_active() {
        macro_rules! try_kernels {
            ($(($u:ty, $kernel:path)),+) => {$(
                if let (Some(a), Some(b)) =
                    (recast_mut::<_, Complex<$u>>(a), recast::<_, Complex<$u>>(b))
                {
                    // SAFETY: `fma_active` implies `level_supported(Avx2)`
                    // (avx2 and fma verified); the lengths agree (asserted).
                    return unsafe { $kernel(a, b, conj) };
                }
            )+};
        }
        try_kernels!(
            (f32, x86::ps::pointwise_mul),
            (f64, x86::pd::pointwise_mul),
            (f16, x86::pointwise_mul_f16),
            (bf16, x86::pointwise_mul_bf16)
        );
    }
    fma_pass! {
        fn scalar<T: Real>(a: &mut [Complex<T>], b: &[Complex<T>], conj: bool) {
            for (g, s) in a.iter_mut().zip(b) {
                *g *= if conj { s.conj() } else { *s };
            }
        }
    }
    scalar(a, b, conj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_roundtrip() {
        for level in [SimdLevel::Portable, SimdLevel::Avx2] {
            assert_eq!(SimdLevel::parse(level.name()), Some(level));
        }
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Portable));
        assert_eq!(SimdLevel::parse("AVX2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("sse9"), None);
        assert_eq!(SimdLevel::parse("avx512"), None);
        assert_eq!(SimdLevel::parse(""), None);
    }

    #[test]
    fn portable_is_always_supported() {
        assert!(level_supported(SimdLevel::Portable));
        // Whatever detection picked must itself be supported.
        assert!(level_supported(detected_level()));
        assert!(level_supported(active_level()));
    }
}
