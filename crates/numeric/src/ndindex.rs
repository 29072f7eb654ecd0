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
//! one definition of the layout. The rotation is a transpose and moves
//! cache-resident square tiles ([`rotate_last_to_front`]).

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

/// Tile edge of [`rotate_last_to_front`]: an 8×8 tile of 16-byte
/// elements touches 8 source and 8 destination rows of two cache lines
/// each, so both sides of the transpose stay in L1 while a tile moves.
const ROTATE_TILE: usize = 8;

/// Rotate the last axis to the front: for a source grid with `last` as
/// its final extent (flat length `lead * last`), write
/// `dst[j, r] = src[r, j]` where `r` ranges over the `lead` leading
/// positions. This is a `(lead × last) → (last × lead)` transpose; on a
/// row-major N-d grid it moves the contiguous last axis to the slowest
/// position while preserving the relative order of the other axes.
/// Allocation-free; `src` and `dst` must both have length `lead * last`.
pub fn rotate_last_to_front<T: Copy>(lead: usize, last: usize, src: &[T], dst: &mut [T]) {
    assert_eq!(src.len(), lead * last, "rotate: src length");
    assert_eq!(dst.len(), lead * last, "rotate: dst length");
    // An untiled walk scatters (or gathers) at stride `lead`: at the
    // power-of-two extents the operators use, every element of a source
    // row lands in the same few cache sets and the pass runs at a sixth
    // of copy bandwidth. Moving `ROTATE_TILE`-square tiles keeps both the
    // rows read and the rows written resident until they are complete.
    for r0 in (0..lead).step_by(ROTATE_TILE) {
        let r1 = (r0 + ROTATE_TILE).min(lead);
        for j0 in (0..last).step_by(ROTATE_TILE) {
            let j1 = (j0 + ROTATE_TILE).min(last);
            for j in j0..j1 {
                for r in r0..r1 {
                    dst[j * lead + r] = src[r * last + j];
                }
            }
        }
    }
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
