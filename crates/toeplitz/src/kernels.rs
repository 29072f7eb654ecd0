//! Tier-generic grid kernels for the multi-level pipelines: head
//! embedding (Pad), pointwise symbol multiply (Sbgemv), head extraction
//! (Unpad), split-channel variants, and the phase-boundary cast.
//!
//! Rounding follows the 1-level pipeline's fused-cast semantics: a value
//! entering the grid is rounded through the Pad tier *then* stored in
//! the Fft tier (two roundings when they differ, matching
//! `pad_input_into` + `cast_real_into`), and a value leaving the grid is
//! rounded through the Unpad tier on its way to the `f64` output.

use fftmatvec_numeric::{fma_pass, Complex, Precision, Real, C64};

/// Zero the whole grid (embedding slack must be zero before the head
/// block is written).
pub(crate) fn zero_fill<T: Real>(dst: &mut [Complex<T>]) {
    let z = Complex::new(T::from_f64(0.0), T::from_f64(0.0));
    for v in dst.iter_mut() {
        *v = z;
    }
}

/// Recursively copy the row-major head block `src` (extents `in_dims`)
/// into the zeroed grid (extents `grid_dims`), rounding each value
/// through `p_pad` before the cast into `T`. Allocation-free; recursion
/// depth is the level count (≤ [`crate::generator::MAX_LEVELS`]).
pub(crate) fn embed_head<T: Real>(
    in_dims: &[usize],
    grid_dims: &[usize],
    src: &[f64],
    p_pad: Precision,
    dst: &mut [Complex<T>],
) {
    debug_assert_eq!(in_dims.len(), grid_dims.len());
    if in_dims.len() == 1 {
        for (d, &x) in dst[..in_dims[0]].iter_mut().zip(src) {
            *d = Complex::new(T::from_f64(p_pad.round_f64(x)), T::from_f64(0.0));
        }
        return;
    }
    let in_block: usize = in_dims[1..].iter().product();
    let grid_block: usize = grid_dims[1..].iter().product();
    for i in 0..in_dims[0] {
        embed_head(
            &in_dims[1..],
            &grid_dims[1..],
            &src[i * in_block..(i + 1) * in_block],
            p_pad,
            &mut dst[i * grid_block..(i + 1) * grid_block],
        );
    }
}

/// Inverse of [`embed_head`]: read the head block of the grid, take the
/// real part (the imaginary parts of a real-symbol circulant apply are
/// roundoff), round through `p_unpad`, write `f64` output.
pub(crate) fn extract_head<T: Real>(
    out_dims: &[usize],
    grid_dims: &[usize],
    grid: &[Complex<T>],
    p_unpad: Precision,
    out: &mut [f64],
) {
    debug_assert_eq!(out_dims.len(), grid_dims.len());
    if out_dims.len() == 1 {
        for (o, g) in out.iter_mut().zip(&grid[..out_dims[0]]) {
            *o = p_unpad.round_f64(g.re.to_f64());
        }
        return;
    }
    let out_block: usize = out_dims[1..].iter().product();
    let grid_block: usize = grid_dims[1..].iter().product();
    for i in 0..out_dims[0] {
        extract_head(
            &out_dims[1..],
            &grid_dims[1..],
            &grid[i * grid_block..(i + 1) * grid_block],
            p_unpad,
            &mut out[i * out_block..(i + 1) * out_block],
        );
    }
}

/// Split-path Pad: embed the two-level input (`in_outer × in_inner`
/// head) into the zeroed half grid (`n₁ × m₂` with `in_outer ≤ n₁`),
/// optionally pre-twisting each outer row `j` by the unit phase
/// `twist[j]` (the odd channel's decimation shift). The twist is applied
/// in double after the Pad-tier rounding, then the product is cast into
/// `T` — one rounding per stored component, same as the untwisted path.
pub(crate) fn pad_split<T: Real>(
    in_outer: usize,
    in_inner: usize,
    m2: usize,
    src: &[f64],
    p_pad: Precision,
    twist: Option<&[C64]>,
    dst: &mut [Complex<T>],
) {
    zero_fill(dst);
    for i in 0..in_outer {
        let row = &src[i * in_inner..(i + 1) * in_inner];
        let drow = &mut dst[i * m2..i * m2 + in_inner];
        match twist {
            None => {
                for (d, &x) in drow.iter_mut().zip(row) {
                    *d = Complex::new(T::from_f64(p_pad.round_f64(x)), T::from_f64(0.0));
                }
            }
            Some(w) => {
                let wi = w[i];
                for (d, &x) in drow.iter_mut().zip(row) {
                    let z = wi.scale(p_pad.round_f64(x));
                    *d = Complex::new(T::from_f64(z.re), T::from_f64(z.im));
                }
            }
        }
    }
}

fma_pass! {
    /// Split-path Unpad: fold one channel's half-grid inverse transform into
    /// the output. The length-`m₁` inverse DFT splits as
    /// `y[n] = ½·(E[n] + e^{+iπn/n₁}·O[n])` for `n < n₁`, so the even
    /// channel (weight 1) *writes* `½·Re(h)` and the odd channel
    /// (`weight[n] = e^{+iπn/n₁}`) *accumulates* `½·Re(w_n·h)`. Each
    /// channel's contribution rounds through `p_unpad` before the `f64`
    /// write/add. The odd channel's `w·h` is a complex product per element,
    /// so the loop is an [`fma_pass`] (outside an FMA context each product
    /// is two calls into libm `fma`).
    pub(crate) fn extract_split<T: Real>(
        out_outer: usize,
        out_inner: usize,
        m2: usize,
        grid: &[Complex<T>],
        p_unpad: Precision,
        weight: Option<&[C64]>,
        accumulate: bool,
        out: &mut [f64],
    ) {
        for n in 0..out_outer {
            let grow = &grid[n * m2..n * m2 + out_inner];
            let orow = &mut out[n * out_inner..(n + 1) * out_inner];
            let w = weight.map(|w| w[n]);
            for (o, g) in orow.iter_mut().zip(grow) {
                let h = C64::new(g.re.to_f64(), g.im.to_f64());
                let re = match w {
                    None => h.re,
                    Some(w) => (w * h).re,
                };
                let contrib = p_unpad.round_f64(0.5 * re);
                if accumulate {
                    *o += contrib;
                } else {
                    *o = contrib;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embed_and_extract_roundtrip_the_head_block() {
        let in_dims = [2usize, 3];
        let grid_dims = [4usize, 5];
        let src: Vec<f64> = (1..=6).map(|i| i as f64).collect();
        let mut grid = vec![Complex::<f64>::new(9.0, 9.0); 20];
        zero_fill(&mut grid);
        embed_head(&in_dims, &grid_dims, &src, Precision::Double, &mut grid);
        // Slack positions are zero, head block carries the input.
        assert_eq!(grid[0].re, 1.0);
        assert_eq!(grid[5].re, 4.0); // second outer row starts at 1*5
        assert_eq!(grid[3].re, 0.0);
        assert_eq!(grid[10].re, 0.0);
        let mut back = vec![0.0; 6];
        extract_head(&in_dims, &grid_dims, &grid, Precision::Double, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    fn pad_rounds_through_the_pad_tier() {
        let x = [1.0 + 2f64.powi(-20)];
        let mut grid = vec![Complex::<f64>::new(0.0, 0.0); 2];
        embed_head(&[1], &[2], &x, Precision::Half, &mut grid);
        // f16 has 10 mantissa bits: the 2^-20 tail is rounded away even
        // though the grid itself stores f64.
        assert_eq!(grid[0].re, 1.0);
    }

    #[test]
    fn split_extract_reconstructs_even_plus_twisted_odd() {
        // One outer row, weight e^{iπ/4}: contribution is ½·Re(w·h).
        let h = Complex::<f64>::new(1.0, 1.0);
        let w = [C64::expi(std::f64::consts::FRAC_PI_4)];
        let grid = vec![h];
        let mut out = vec![1.0];
        extract_split(1, 1, 1, &grid, Precision::Double, Some(&w), true, &mut out);
        let expect = 1.0 + 0.5 * (w[0] * h).re;
        assert!((out[0] - expect).abs() < 1e-15);
    }
}
