//! Collectives with *real* data movement.
//!
//! The distributed matvec's numerics must be faithful: the paper's error
//! bound has a `c₅·ε₅·log2(p_c)` term from the phase-5 reduction, which
//! only appears if the reduction really happens in floating point, in the
//! configured precision, with a tree-shaped summation order. These
//! functions operate on per-rank buffers held in one process.

use fftmatvec_numeric::Real;

/// Work (scalar elements under a reduction node) below which the two
/// subtrees run sequentially; smaller nodes are dominated by pool
/// dispatch. Deliberately a per-crate constant (the FFT batch driver and
/// the BLAS kernels carry their own): the profitable cutoff depends on
/// the per-element cost of each workload, so the crates are tuned
/// independently rather than sharing one number.
const PAR_THRESHOLD: usize = 1 << 14;

/// Run the two halves of a reduction node — in parallel (above
/// [`PAR_THRESHOLD`] work) or inline. Only the *scheduling* of the
/// subtrees changes; the combine performed by the caller after this
/// returns is identical in every mode, so the summation association —
/// and therefore the result bits — cannot depend on the thread count.
fn node_halves<RA, RB>(
    work: usize,
    left: impl FnOnce() -> RA + Send,
    right: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if work > PAR_THRESHOLD {
        return rayon::join(left, right);
    }
    (left(), right())
}

/// Pairwise-tree sum of per-rank vectors (all the same length). The
/// summation tree has depth `⌈log2(p)⌉`, matching both an MPI/RCCL tree
/// reduction and the error model's `log2(p)` factor. Independent
/// subtrees execute concurrently on the pool — same tree, same
/// association, same bits.
pub fn tree_reduce_sum<T: Real>(inputs: &[Vec<T>]) -> Vec<T> {
    assert!(!inputs.is_empty(), "reduce over empty rank set");
    let len = inputs[0].len();
    for (i, v) in inputs.iter().enumerate() {
        assert_eq!(v.len(), len, "rank {i} buffer length mismatch");
    }
    reduce_range(inputs, 0, inputs.len())
}

/// Split point shared by every tree reduction here: the largest power of
/// two below `n` — the shape a recursive-halving reduction takes. Both
/// the allocating and the in-place reductions use this one function, so
/// their summation associations cannot diverge.
fn tree_split(n: usize) -> usize {
    (n / 2).next_power_of_two().min(n - 1)
}

fn reduce_range<T: Real>(inputs: &[Vec<T>], lo: usize, hi: usize) -> Vec<T> {
    match hi - lo {
        1 => inputs[lo].clone(),
        2 => {
            let mut out = inputs[lo].clone();
            for (o, &b) in out.iter_mut().zip(&inputs[lo + 1]) {
                *o += b;
            }
            out
        }
        n => {
            let half = tree_split(n);
            let len = inputs[lo].len();
            let (mut left, right) = node_halves(
                n * len,
                || reduce_range(inputs, lo, lo + half),
                || reduce_range(inputs, lo + half, hi),
            );
            for (o, &b) in left.iter_mut().zip(&right) {
                *o += b;
            }
            left
        }
    }
}

/// In-place variant of [`tree_reduce_sum`] over a flat buffer holding
/// `flat.len()/len` equally sized parts back to back: afterwards,
/// `flat[..len]` holds the reduced sum with exactly the same summation
/// association as [`tree_reduce_sum`] (both recurse through one shared
/// split helper). Allocates nothing — the distributed matvec's phase-5
/// reduction runs this inside a pooled communication buffer.
pub fn tree_reduce_sum_in_place<T: Real>(flat: &mut [T], len: usize) {
    assert!(len > 0 && !flat.is_empty(), "reduce over empty rank set");
    assert_eq!(flat.len() % len, 0, "flat buffer not a multiple of the part length");
    reduce_range_in_place(flat, len, flat.len() / len);
}

/// Reduce the leading `parts` parts of `flat` into `flat[..len]`.
fn reduce_range_in_place<T: Real>(flat: &mut [T], len: usize, parts: usize) {
    if parts <= 1 {
        return;
    }
    let half = tree_split(parts);
    // Each recursion owns exactly its sub-slice: parts `[0, half)` live
    // in `head` and parts `[half, parts)` in `tail`, so the two
    // subtrees operate on disjoint borrows and can run concurrently.
    let (head, tail) = flat.split_at_mut(half * len);
    node_halves(
        parts * len,
        || reduce_range_in_place(head, len, half),
        || reduce_range_in_place(tail, len, parts - half),
    );
    // parts[0] += parts[half].
    let (head, tail) = flat.split_at_mut(half * len);
    for (o, &b) in head[..len].iter_mut().zip(&tail[..len]) {
        *o += b;
    }
}

/// Broadcast: clone the root buffer to every rank slot.
pub fn broadcast<T: Clone>(root: &[T], ranks: usize) -> Vec<Vec<T>> {
    (0..ranks).map(|_| root.to_vec()).collect()
}

/// Allgather: concatenate per-rank contributions in rank order.
pub fn allgather<T: Clone>(parts: &[Vec<T>]) -> Vec<T> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

/// Scatter: split `data` into `parts` contiguous chunks (leading chunks
/// take the remainder), inverse of [`allgather`] for equal splits.
pub fn scatter<T: Clone>(data: &[T], parts: usize) -> Vec<Vec<T>> {
    use crate::grid::ProcessGrid;
    (0..parts).map(|i| data[ProcessGrid::chunk_range(data.len(), parts, i)].to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_reduce_matches_serial_sum_exactly_for_integers() {
        // Integer-valued floats: any summation order is exact.
        let inputs: Vec<Vec<f64>> = (0..7).map(|r| vec![r as f64, 2.0 * r as f64]).collect();
        let out = tree_reduce_sum(&inputs);
        assert_eq!(out, vec![21.0, 42.0]);
    }

    #[test]
    fn tree_reduce_single_rank_is_identity() {
        let inputs = vec![vec![1.5f32, -2.5]];
        assert_eq!(tree_reduce_sum(&inputs), vec![1.5, -2.5]);
    }

    #[test]
    fn in_place_reduce_is_bitwise_the_allocating_reduce() {
        // Same split helper, same association — bit-identical results on
        // cancellation-prone data for every rank count.
        for parts in 1..=12usize {
            let len = 5;
            let inputs: Vec<Vec<f64>> = (0..parts)
                .map(|r| {
                    (0..len)
                        .map(|i| ((r * 31 + i * 7) as f64).sin() * 10f64.powi((r % 5) as i32 - 2))
                        .collect()
                })
                .collect();
            let want = tree_reduce_sum(&inputs);
            let mut flat: Vec<f64> = inputs.concat();
            tree_reduce_sum_in_place(&mut flat, len);
            assert_eq!(&flat[..len], &want[..], "parts={parts}");
        }
    }

    #[test]
    fn tree_reduce_error_grows_like_log_p() {
        // Summing p copies of values that don't cancel: the tree error
        // should stay within ~log2(p)·ε relative, far below a sequential
        // worst case of p·ε.
        let p = 1024;
        let inputs: Vec<Vec<f32>> = (0..p).map(|r| vec![1.0 + (r as f32) * 1.1920929e-7]).collect();
        let out = tree_reduce_sum(&inputs);
        let exact: f64 = inputs.iter().map(|v| v[0] as f64).sum();
        let rel = ((out[0] as f64 - exact) / exact).abs();
        let log_bound = (p as f64).log2() * f32::EPSILON as f64;
        assert!(rel < log_bound, "rel {rel} vs log-bound {log_bound}");
    }

    #[test]
    fn tree_reduce_non_power_of_two() {
        for p in [3usize, 5, 6, 7, 100, 1001] {
            let inputs: Vec<Vec<f64>> = (0..p).map(|_| vec![1.0]).collect();
            let out = tree_reduce_sum(&inputs);
            assert_eq!(out[0], p as f64, "p={p}");
        }
    }

    #[test]
    fn scatter_allgather_roundtrip() {
        let data: Vec<f64> = (0..103).map(|i| i as f64).collect();
        for parts in [1usize, 2, 7, 16, 103] {
            let pieces = scatter(&data, parts);
            assert_eq!(pieces.len(), parts);
            assert_eq!(allgather(&pieces), data, "parts={parts}");
        }
    }

    #[test]
    fn broadcast_replicates() {
        let root = vec![1.0f64, 2.0];
        let all = broadcast(&root, 5);
        assert_eq!(all.len(), 5);
        assert!(all.iter().all(|v| *v == root));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let inputs = vec![vec![1.0f64], vec![1.0, 2.0]];
        tree_reduce_sum(&inputs);
    }
}
