//! Row-major N-dimensional index arithmetic and axis-rotation layout
//! kernels.
//!
//! The multi-level Toeplitz operators work on dense row-major grids
//! (last axis contiguous) and transform one axis at a time: FFT the
//! contiguous last axis, then rotate that axis to the front so the next
//! axis becomes contiguous. After `dims.len()` rotations the grid is
//! back in its original layout with every axis visited exactly once.
//! These helpers are the index math for that scheme; they are kept in
//! the numeric crate so the FFT driver and the operator layer agree on
//! one definition of the layout.
//!
//! Every transposing pass in the tree — the N-d rotation here and the
//! pad / reorder / unpad memory operations of `fftmatvec_core::layout` —
//! is one loop nest, [`transpose_map`], moving cache-resident square
//! tiles of one size.

/// Product of all extents — the flat length of a row-major grid.
/// Returns 1 for an empty dims list (the 0-d grid holds one scalar).
pub fn total_len(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// Row-major strides for `dims`: `strides[i]` is the flat distance
/// between neighbours along axis `i` (last axis has stride 1).
pub fn strides_row_major(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// Flat offset of a multi-index under row-major strides.
pub fn compose(idx: &[usize], strides: &[usize]) -> usize {
    debug_assert_eq!(idx.len(), strides.len());
    idx.iter().zip(strides).map(|(i, s)| i * s).sum()
}

/// Decompose a flat row-major offset into a multi-index (written into
/// `out`, which must have `dims.len()` entries).
pub fn decompose(flat: usize, dims: &[usize], out: &mut [usize]) {
    debug_assert_eq!(dims.len(), out.len());
    let mut rem = flat;
    for i in (0..dims.len()).rev() {
        out[i] = rem % dims[i];
        rem /= dims[i];
    }
    debug_assert_eq!(rem, 0, "flat index out of range");
}

/// Tile edge of [`transpose_map`], the one transposing loop nest in the
/// tree (two users: the N-d rotation here, the layout kernels of
/// `fftmatvec_core`): an 8×8 tile of 8- or 16-byte elements touches 8
/// source and 8 destination rows of one or two cache lines each, so both
/// sides of the transpose stay in L1 while a tile moves — 8 rows fit one
/// set of a 12-way cache even when they are a power of two apart. 16×16
/// measured the same for 4-, 8- and 16-byte elements (hot within 10 %,
/// every layout phase of a `bench_e2e` apply within ±1 µs), and 16 rows
/// 4 KiB apart no longer fit one set.
const TRANSPOSE_TILE: usize = 8;

/// Tiled transposing map: `dst[c·ld_dst + r] = f(src[r·ld_src + c])` for
/// every `r < rows`, `c < cols` — a `(rows × cols)` row-major source with
/// leading dimension `ld_src` lands transposed in a destination with
/// leading dimension `ld_dst`, each element passing through `f` (a cast,
/// or the identity). Elements of `dst` outside the written region are
/// never touched, so a destination may carry padding the caller owns.
/// Zero extents are a no-op. Allocation-free.
///
/// An untiled walk scatters (or gathers) element by element at stride
/// `ld_dst`: at the power-of-two extents the operators use, every element
/// of a source row lands in the same few cache sets (rows 4 KiB apart put
/// 65 consecutive writes into one set of a 12-way L1) and the pass runs at
/// a quarter of copy bandwidth. Moving `TRANSPOSE_TILE`-square tiles keeps both
/// the rows read and the rows written resident until they are complete.
///
/// `#[inline(always)]` so `f` — and whatever it calls — is compiled in
/// the caller's context, once per `(A, B, f)`.
///
/// # Panics
/// If `ld_src < cols`, `ld_dst < rows`, or either slice is shorter than
/// its last touched element requires.
#[inline(always)]
pub fn transpose_map<A: Copy, B>(
    src: &[A],
    ld_src: usize,
    dst: &mut [B],
    ld_dst: usize,
    rows: usize,
    cols: usize,
    f: impl Fn(A) -> B,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(ld_src >= cols && ld_dst >= rows, "transpose_map: leading dimension below extent");
    assert!(src.len() >= (rows - 1) * ld_src + cols, "transpose_map: src too short");
    assert!(dst.len() >= (cols - 1) * ld_dst + rows, "transpose_map: dst too short");
    // Destination rows outermost: a band of `TRANSPOSE_TILE` of them is
    // written front to back (sequential store streams) while the reads
    // take the stride.
    for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
        let c1 = (c0 + TRANSPOSE_TILE).min(cols);
        for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
            let r1 = (r0 + TRANSPOSE_TILE).min(rows);
            for c in c0..c1 {
                let out = &mut dst[c * ld_dst + r0..c * ld_dst + r1];
                for (k, o) in out.iter_mut().enumerate() {
                    *o = f(src[(r0 + k) * ld_src + c]);
                }
            }
        }
    }
}

/// Rotate the last axis to the front: for a source grid with `last` as
/// its final extent (flat length `lead * last`), write
/// `dst[j, r] = src[r, j]` where `r` ranges over the `lead` leading
/// positions. This is a `(lead × last) → (last × lead)` transpose
/// ([`transpose_map`] with the identity); on a row-major N-d grid it
/// moves the contiguous last axis to the slowest position while
/// preserving the relative order of the other axes. Allocation-free;
/// `src` and `dst` must both have length `lead * last`.
pub fn rotate_last_to_front<T: Copy>(lead: usize, last: usize, src: &[T], dst: &mut [T]) {
    assert_eq!(src.len(), lead * last, "rotate: src length");
    assert_eq!(dst.len(), lead * last, "rotate: dst length");
    transpose_map(src, last, dst, lead, lead, last, |v| v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_and_compose_roundtrip() {
        let dims = [3usize, 4, 5];
        let strides = strides_row_major(&dims);
        assert_eq!(strides, vec![20, 5, 1]);
        assert_eq!(total_len(&dims), 60);
        let mut idx = [0usize; 3];
        for flat in 0..60 {
            decompose(flat, &dims, &mut idx);
            assert!(idx.iter().zip(&dims).all(|(i, d)| i < d));
            assert_eq!(compose(&idx, &strides), flat);
        }
    }

    #[test]
    fn zero_dim_grid_is_a_scalar() {
        assert_eq!(total_len(&[]), 1);
        assert_eq!(strides_row_major(&[]), Vec::<usize>::new());
    }

    #[test]
    fn rotation_is_a_transpose() {
        // 2×3 grid: [[0,1,2],[3,4,5]] → rotating the last axis to the
        // front gives the 3×2 transpose [[0,3],[1,4],[2,5]].
        let src = [0, 1, 2, 3, 4, 5];
        let mut dst = [0; 6];
        rotate_last_to_front(2, 3, &src, &mut dst);
        assert_eq!(dst, [0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn tiled_rotation_matches_the_naive_transpose_on_ragged_shapes() {
        // Degenerate, smaller-than-a-tile, partial-tile and whole-tile
        // extents on either side.
        for (lead, last) in [(1usize, 37usize), (37, 1), (5, 13), (17, 8), (8, 17), (128, 128)] {
            let src: Vec<u32> = (0..(lead * last) as u32).collect();
            let mut dst = vec![u32::MAX; src.len()];
            rotate_last_to_front(lead, last, &src, &mut dst);
            for r in 0..lead {
                for j in 0..last {
                    assert_eq!(dst[j * lead + r], src[r * last + j], "{lead}x{last} at ({r},{j})");
                }
            }
        }
    }

    #[test]
    fn transpose_map_matches_the_naive_loop_and_touches_nothing_else() {
        // Empty, degenerate, below-a-tile, partial-tile and whole-tile
        // extents, with both leading dimensions padded: every written
        // element equals the naive double loop's, and the sentinel
        // survives everywhere the naive loop does not write.
        const SENTINEL: u64 = u64::MAX;
        let shapes =
            [(0, 5), (5, 0), (1, 37), (37, 1), (5, 13), (17, 8), (8, 17), (64, 256), (256, 65)];
        for (rows, cols) in shapes {
            for (pad_src, pad_dst) in [(0, 0), (3, 5)] {
                let (ld_src, ld_dst) = (cols + pad_src, rows + pad_dst);
                let src: Vec<u32> = (0..(rows * ld_src) as u32).collect();
                let f = |v: u32| u64::from(v) * 3 + 1;
                let mut want = vec![SENTINEL; cols * ld_dst];
                for r in 0..rows {
                    for c in 0..cols {
                        want[c * ld_dst + r] = f(src[r * ld_src + c]);
                    }
                }
                let mut got = vec![SENTINEL; cols * ld_dst];
                transpose_map(&src, ld_src, &mut got, ld_dst, rows, cols, f);
                assert_eq!(got, want, "{rows}x{cols} ld_src={ld_src} ld_dst={ld_dst}");
            }
        }
    }

    #[test]
    fn transpose_map_accepts_exactly_the_last_touched_element() {
        // No trailing padding after the last row on either side.
        let (rows, cols, ld_src, ld_dst) = (3, 2, 4, 5);
        let src = vec![7u8; (rows - 1) * ld_src + cols];
        let mut dst = vec![0u8; (cols - 1) * ld_dst + rows];
        transpose_map(&src, ld_src, &mut dst, ld_dst, rows, cols, |v| v);
        assert_eq!(dst, [7, 7, 7, 0, 0, 7, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn transpose_map_rejects_a_short_leading_dimension() {
        transpose_map(&[0u8; 6], 2, &mut [0u8; 6], 2, 2, 3, |v| v);
    }

    #[test]
    #[should_panic(expected = "src too short")]
    fn transpose_map_rejects_a_short_source() {
        transpose_map(&[0u8; 5], 3, &mut [0u8; 6], 2, 2, 3, |v| v);
    }

    #[test]
    #[should_panic(expected = "dst too short")]
    fn transpose_map_rejects_a_short_destination() {
        transpose_map(&[0u8; 6], 3, &mut [0u8; 5], 2, 2, 3, |v| v);
    }

    #[test]
    fn n_rotations_restore_the_layout() {
        // Rotating last-to-front dims.len() times must be the identity.
        let dims = [2usize, 3, 4];
        let n = total_len(&dims);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut a = src.clone();
        let mut b = vec![0u32; n];
        for step in 0..dims.len() {
            let last = dims[dims.len() - 1 - step];
            rotate_last_to_front(n / last, last, &a, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        assert_eq!(a, src);
    }
}
