//! Tier-generic row kernels for the multi-level pipelines: head
//! embedding (Pad) and head extraction (Unpad).
//!
//! Both work on the real buffer the N-d engine reads and writes: one row
//! of `m` (the innermost circulant extent) per index of the outer head
//! box, rows in the same row-major order as the operator's input /
//! output, so a row of the vector and a row of the buffer line up one to
//! one. Only the innermost axis is padded here — the outer axes' zeros
//! are the engine's business and are never materialized as rows.
//!
//! Rounding follows the 1-level pipeline's fused-cast semantics: a value
//! entering the buffer is rounded through the Pad tier *then* stored in
//! the Fft tier (two roundings when they differ, matching
//! `pad_input_into` + the device's `cast_real`), and a value leaving it is
//! rounded through the Unpad tier on its way to the `f64` output.

use fftmatvec_numeric::{Precision, Real};

/// Write each `in_last`-long row of `src` to the head of an `m`-long row
/// of `dst`, rounding each value through `p_pad` before the cast into
/// `T`, and zero the row's tail (every apply: a workspace comes back
/// dirty). Rows of `dst` beyond `src`'s are left alone.
pub(crate) fn embed_head<T: Real>(
    in_last: usize,
    m: usize,
    src: &[f64],
    p_pad: Precision,
    dst: &mut [T],
) {
    for (srow, drow) in src.chunks_exact(in_last).zip(dst.chunks_exact_mut(m)) {
        let (head, tail) = drow.split_at_mut(in_last);
        for (d, &x) in head.iter_mut().zip(srow) {
            *d = T::from_f64(p_pad.round_f64(x));
        }
        tail.fill(T::ZERO);
    }
}

/// Inverse of [`embed_head`]: read the first `out_last` values of each
/// `m`-long row of `rows`, round through `p_unpad`, write `f64` output.
pub(crate) fn extract_head<T: Real>(
    out_last: usize,
    m: usize,
    rows: &[T],
    p_unpad: Precision,
    out: &mut [f64],
) {
    for (orow, row) in out.chunks_exact_mut(out_last).zip(rows.chunks_exact(m)) {
        for (o, g) in orow.iter_mut().zip(row) {
            *o = p_unpad.round_f64(g.to_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embed_and_extract_roundtrip_the_head_block() {
        // Two input rows of 3 into rows of 5; the buffer has a third row
        // (the other direction's head is taller) that must stay as it is.
        let src: Vec<f64> = (1..=6).map(|i| i as f64).collect();
        let mut rows = vec![9.0f64; 15];
        embed_head(3, 5, &src, Precision::Double, &mut rows);
        assert_eq!(rows[..10], [1.0, 2.0, 3.0, 0.0, 0.0, 4.0, 5.0, 6.0, 0.0, 0.0]);
        assert_eq!(rows[10..], [9.0; 5]);
        let mut back = vec![0.0; 6];
        extract_head(3, 5, &rows, Precision::Double, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    fn pad_rounds_through_the_pad_tier() {
        let x = [1.0 + 2f64.powi(-20)];
        let mut row = vec![0.0f64; 2];
        embed_head(1, 2, &x, Precision::Half, &mut row);
        // f16 has 10 mantissa bits: the 2^-20 tail is rounded away even
        // though the buffer itself stores f64.
        assert_eq!(row[0], 1.0);
    }
}
