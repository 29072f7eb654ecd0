//! Bit-for-bit equivalence of the SIMD conversion kernels against the
//! portable scalars, plus the forced-fallback dispatch test.
//!
//! The widening direction is checked exhaustively (all 2¹⁶ patterns,
//! NaNs included); the narrowing direction densely samples every
//! rounding boundary (the midpoint between each pair of adjacent 16-bit
//! values, ±1 f32 ulp) plus a large random sweep over raw f32 bit
//! patterns so infinities, NaN payloads, and subnormals are all hit.

use std::sync::Mutex;

use fftmatvec_numeric::half::{bf16, f16, f16_bits_to_f32};
use fftmatvec_numeric::simd::{
    active_level, level_supported, narrow_f32_to_bf16, narrow_f32_to_bf16_with, narrow_f32_to_f16,
    narrow_f32_to_f16_with, set_active_level, widen_bf16_to_f32, widen_bf16_to_f32_with,
    widen_f16_to_f32, widen_f16_to_f32_with, SimdLevel,
};
use fftmatvec_numeric::SplitMix64;
use proptest::prelude::*;

/// Guards `set_active_level` (process-global) against concurrent tests.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn supported_levels() -> Vec<SimdLevel> {
    [SimdLevel::Portable, SimdLevel::Avx2].into_iter().filter(|&l| level_supported(l)).collect()
}

#[test]
fn widen_f16_exhaustive_all_levels() {
    let src: Vec<f16> = (0..=u16::MAX).map(f16::from_bits).collect();
    let mut reference = vec![0f32; src.len()];
    widen_f16_to_f32_with(SimdLevel::Portable, &src, &mut reference);
    for level in supported_levels() {
        let mut out = vec![0f32; src.len()];
        widen_f16_to_f32_with(level, &src, &mut out);
        for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "f16 widen {level} at pattern {i:#06x}");
        }
    }
}

#[test]
fn widen_bf16_exhaustive_all_levels() {
    let src: Vec<bf16> = (0..=u16::MAX).map(bf16::from_bits).collect();
    let mut reference = vec![0f32; src.len()];
    widen_bf16_to_f32_with(SimdLevel::Portable, &src, &mut reference);
    for level in supported_levels() {
        let mut out = vec![0f32; src.len()];
        widen_bf16_to_f32_with(level, &src, &mut out);
        for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "bf16 widen {level} at pattern {i:#06x}");
        }
    }
}

/// Dense coverage of f32 inputs: every finite f16 value, every midpoint
/// between adjacent f16 values, each ±1 f32 ulp, plus specials.
fn f16_boundary_inputs() -> Vec<f32> {
    let mut v = Vec::with_capacity(9 * (1 << 16));
    for bits in 0..u16::MAX {
        let a = f16_bits_to_f32(bits);
        if !a.is_finite() {
            continue;
        }
        let around = |x: f32, out: &mut Vec<f32>| {
            let b = x.to_bits();
            out.push(f32::from_bits(b.wrapping_sub(1)));
            out.push(x);
            out.push(f32::from_bits(b.wrapping_add(1)));
        };
        around(a, &mut v);
        let next = f16_bits_to_f32(bits + 1);
        if next.is_finite() {
            // The f32 midpoint of two adjacent f16s is exact (≤ 12 extra
            // significand bits needed, f32 has 13 beyond f16).
            around((a + next) / 2.0, &mut v);
        }
    }
    v.extend_from_slice(&[
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_1234), // quiet NaN with payload
        f32::from_bits(0x7f80_0001), // signaling NaN
        f32::from_bits(0xff80_4321),
        f32::MIN_POSITIVE,
        f32::MIN_POSITIVE / 4.0, // f32 subnormal
        65519.9,
        65520.0,
        65520.1,
    ]);
    v
}

#[test]
fn narrow_f16_boundaries_all_levels() {
    let src = f16_boundary_inputs();
    let mut reference = vec![f16::from_bits(0); src.len()];
    narrow_f32_to_f16_with(SimdLevel::Portable, &src, &mut reference);
    for level in supported_levels() {
        let mut out = vec![f16::from_bits(0); src.len()];
        narrow_f32_to_f16_with(level, &src, &mut out);
        for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
            assert!(
                a.bit_eq(*b),
                "f16 narrow {level} at input {:e} ({:#010x}): {:#06x} != {:#06x}",
                src[i],
                src[i].to_bits(),
                a.to_bits(),
                b.to_bits()
            );
        }
    }
}

#[test]
fn narrow_bf16_boundaries_all_levels() {
    // bf16 boundaries are uniform in the bit pattern: value (b<<16),
    // midpoint (b<<16)|0x8000 — sweep all b with the interesting low
    // halves, then a dense random sweep over raw patterns.
    let mut src = Vec::with_capacity(8 * (1 << 16));
    for b in 0..=u16::MAX {
        let hi = (b as u32) << 16;
        for lo in [0x0000, 0x0001, 0x7fff, 0x8000, 0x8001, 0xffff] {
            src.push(f32::from_bits(hi | lo));
        }
    }
    let mut rng = SplitMix64::new(3);
    src.extend((0..500_000).map(|_| f32::from_bits(rng.next_u64() as u32)));
    let mut reference = vec![bf16::from_bits(0); src.len()];
    narrow_f32_to_bf16_with(SimdLevel::Portable, &src, &mut reference);
    for level in supported_levels() {
        let mut out = vec![bf16::from_bits(0); src.len()];
        narrow_f32_to_bf16_with(level, &src, &mut out);
        for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
            assert!(
                a.bit_eq(*b),
                "bf16 narrow {level} at input {:#010x}: {:#06x} != {:#06x}",
                src[i].to_bits(),
                a.to_bits(),
                b.to_bits()
            );
        }
    }
}

#[test]
fn narrow_f16_random_bit_patterns_all_levels() {
    let mut rng = SplitMix64::new(5);
    let src: Vec<f32> = (0..500_000).map(|_| f32::from_bits(rng.next_u64() as u32)).collect();
    let mut reference = vec![f16::from_bits(0); src.len()];
    narrow_f32_to_f16_with(SimdLevel::Portable, &src, &mut reference);
    for level in supported_levels() {
        let mut out = vec![f16::from_bits(0); src.len()];
        narrow_f32_to_f16_with(level, &src, &mut out);
        for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
            assert!(a.bit_eq(*b), "f16 narrow {level} at {:#010x}", src[i].to_bits());
        }
    }
}

#[test]
fn forced_fallback_runs_portable_on_capable_hosts() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let prev = set_active_level(SimdLevel::Portable);
    assert_eq!(active_level(), SimdLevel::Portable);

    // The implicit entry points must route to the portable kernels and
    // still produce the same bits as any other level.
    let mut rng = SplitMix64::new(9);
    let f32s: Vec<f32> = (0..4099).map(|_| rng.uniform(-70000.0, 70000.0) as f32).collect();
    let mut h = vec![f16::from_bits(0); f32s.len()];
    let mut b = vec![bf16::from_bits(0); f32s.len()];
    narrow_f32_to_f16(&f32s, &mut h);
    narrow_f32_to_bf16(&f32s, &mut b);
    let mut wh = vec![0f32; f32s.len()];
    let mut wb = vec![0f32; f32s.len()];
    widen_f16_to_f32(&h, &mut wh);
    widen_bf16_to_f32(&b, &mut wb);

    set_active_level(prev);

    let mut h2 = vec![f16::from_bits(0); f32s.len()];
    let mut b2 = vec![bf16::from_bits(0); f32s.len()];
    narrow_f32_to_f16(&f32s, &mut h2);
    narrow_f32_to_bf16(&f32s, &mut b2);
    assert!(h.iter().zip(&h2).all(|(x, y)| x.bit_eq(*y)));
    assert!(b.iter().zip(&b2).all(|(x, y)| x.bit_eq(*y)));
    let mut wh2 = vec![0f32; f32s.len()];
    widen_f16_to_f32(&h, &mut wh2);
    assert_eq!(
        wh.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        wh2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    let mut wb2 = vec![0f32; f32s.len()];
    widen_bf16_to_f32(&b, &mut wb2);
    assert_eq!(
        wb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        wb2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
}

/// The `fma_pass!` loops of `vecmath` — one sequential `mul_add` chain
/// each — give the same bits whether `mul_add` lowers to libm `fma`
/// (portable) or to `vfmadd` (the `avx2,fma` instantiation).
#[test]
fn vecmath_passes_are_bit_identical_at_every_level() {
    use fftmatvec_numeric::vecmath::{axpy, dot, dotc};
    use fftmatvec_numeric::{Complex, Scalar};

    fn run<S: Scalar>(len: usize) -> Vec<(u64, u64)> {
        let mut rng = SplitMix64::new(len as u64);
        let mut fill = || -> Vec<S> {
            let part = |rng: &mut SplitMix64| rng.uniform(-1.0, 1.0);
            (0..len).map(|_| S::from_f64_parts(part(&mut rng), part(&mut rng))).collect()
        };
        let (a, b, mut y) = (fill(), fill(), fill());
        axpy(S::from_f64_parts(0.75, -0.5), &a, &mut y);
        y.push(dot(&a, &b));
        y.push(dotc(&a, &b));
        y.iter().map(|v| v.to_f64_parts()).map(|(re, im)| (re.to_bits(), im.to_bits())).collect()
    }
    fn run_all(len: usize) -> Vec<Vec<(u64, u64)>> {
        vec![
            run::<f32>(len),
            run::<f64>(len),
            run::<f16>(len),
            run::<bf16>(len),
            run::<Complex<f32>>(len),
            run::<Complex<f64>>(len),
        ]
    }

    let _guard = LEVEL_LOCK.lock().unwrap();
    let prev = set_active_level(SimdLevel::Portable);
    for len in [0, 1, 7, 1000] {
        set_active_level(SimdLevel::Portable);
        let reference = run_all(len);
        for level in supported_levels() {
            set_active_level(level);
            assert_eq!(run_all(len), reference, "len={len} level={level}");
        }
    }
    set_active_level(prev);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Narrowing kernels agree across levels on arbitrary f32 buffers of
    /// arbitrary length (exercises the vector body + scalar tail split).
    #[test]
    fn narrow_agrees_any_length(len in 0usize..600, seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let src: Vec<f32> = (0..len).map(|_| f32::from_bits(rng.next_u64() as u32)).collect();
        let mut h_ref = vec![f16::from_bits(0); len];
        let mut b_ref = vec![bf16::from_bits(0); len];
        narrow_f32_to_f16_with(SimdLevel::Portable, &src, &mut h_ref);
        narrow_f32_to_bf16_with(SimdLevel::Portable, &src, &mut b_ref);
        for level in supported_levels() {
            let mut h = vec![f16::from_bits(0); len];
            let mut b = vec![bf16::from_bits(0); len];
            narrow_f32_to_f16_with(level, &src, &mut h);
            narrow_f32_to_bf16_with(level, &src, &mut b);
            prop_assert!(h.iter().zip(&h_ref).all(|(x, y)| x.bit_eq(*y)));
            prop_assert!(b.iter().zip(&b_ref).all(|(x, y)| x.bit_eq(*y)));
        }
    }

    /// Widening kernels agree across levels on arbitrary bit patterns
    /// and lengths.
    #[test]
    fn widen_agrees_any_length(len in 0usize..600, seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let h_src: Vec<f16> = (0..len).map(|_| f16::from_bits(rng.next_u64() as u16)).collect();
        let b_src: Vec<bf16> = (0..len).map(|_| bf16::from_bits(rng.next_u64() as u16)).collect();
        let mut h_ref = vec![0f32; len];
        let mut b_ref = vec![0f32; len];
        widen_f16_to_f32_with(SimdLevel::Portable, &h_src, &mut h_ref);
        widen_bf16_to_f32_with(SimdLevel::Portable, &b_src, &mut b_ref);
        for level in supported_levels() {
            let mut h = vec![0f32; len];
            let mut b = vec![0f32; len];
            widen_f16_to_f32_with(level, &h_src, &mut h);
            widen_bf16_to_f32_with(level, &b_src, &mut b);
            prop_assert!(h.iter().zip(&h_ref).all(|(x, y)| x.to_bits() == y.to_bits()));
            prop_assert!(b.iter().zip(&b_ref).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
