//! The CPU execution of the SBGEMV.
//!
//! [`sbgemv`] computes `y_b = α·op(A_b)·x_b + β·y_b` for every matrix in
//! the batch with one loop nest, [`gemv`]: non-transpose accumulates
//! column-by-column over row tiles; (conjugate-)transpose computes one
//! pairwise dot product per output element. The two *GPU* kernels of
//! Figure 1 — rocBLAS's and the paper's — differ in launch geometry, not
//! in arithmetic, so they are modeled ([`crate::dispatch`]) rather than
//! executed twice.
//!
//! **Summation structure matters for the error analysis.** GPU GEMV
//! kernels never sum a length-k dot sequentially: threads hold partial
//! sums that are combined by wavefront-shuffle *trees*, so the rounding
//! error grows like `ε·√(log k)` rather than sequential summation's
//! `ε·√k`. The paper's measured mixed-precision errors (≲1e-7 with
//! `N_m = 5000` FP32 reductions) are only reachable with that structure,
//! so these CPU kernels use pairwise (recursive-halving) summation — the
//! same error class as the GPU tree reductions.

use fftmatvec_numeric::Scalar;
#[cfg(feature = "parallel")]
use rayon::prelude::*;

use crate::types::{BatchGeometry, GemvOp};

/// Serial-vs-parallel threshold in scalar MACs.
#[cfg_attr(not(feature = "parallel"), allow(dead_code))]
const PAR_THRESHOLD: usize = 1 << 15;

/// Strided batched GEMV `y_b = α·op(A_b)·x_b + β·y_b` over the whole
/// batch, mirroring `rocblas_Xgemv_strided_batched`.
///
/// Allocation-free: batch items are visited as chunks of `y` (one chunk
/// per `stride_y`, output written to its first `output_len` elements), so
/// repeated calls on preallocated buffers perform no heap work — the
/// contract the pipeline's `apply_into` paths rely on.
pub fn sbgemv<S: Scalar>(
    op: GemvOp,
    alpha: S,
    a: &[S],
    x: &[S],
    beta: S,
    y: &mut [S],
    g: &BatchGeometry,
) {
    g.validate(op, a.len(), x.len(), y.len());
    let out_len = op.output_len(g.m, g.n);
    // `stride_y ≥ out_len` is enforced by `validate`; the final chunk may
    // be exactly `out_len` long (no trailing padding required).
    let stride = g.stride_y.max(out_len).max(1);
    #[cfg(feature = "parallel")]
    let work = g.batch * g.m * g.n;
    let body = |(b, chunk): (usize, &mut [S])| {
        let yb = &mut chunk[..out_len];
        let ab = &a[b * g.stride_a..];
        let xb = &x[b * g.stride_x..b * g.stride_x + op.input_len(g.m, g.n)];
        gemv(op, alpha, ab, g.lda, xb, beta, yb, g.m, g.n);
    };
    #[cfg(feature = "parallel")]
    if work > PAR_THRESHOLD {
        y.par_chunks_mut(stride).take(g.batch).enumerate().for_each(|(b, c)| body((b, c)));
        return;
    }
    y.chunks_mut(stride).take(g.batch).enumerate().for_each(|(b, c)| body((b, c)));
}

/// GEMV on one matrix (column-major, leading dim `lda`).
pub fn gemv<S: Scalar>(
    op: GemvOp,
    alpha: S,
    a: &[S],
    lda: usize,
    x: &[S],
    beta: S,
    y: &mut [S],
    m: usize,
    n: usize,
) {
    // BLAS convention: β = 0 means y is write-only (never read), so prior
    // NaN/uninitialized contents must not propagate.
    let beta_zero = beta == S::zero();
    match op {
        GemvOp::NoTrans => {
            // Column sweep with tree-combined partials: one gridblock
            // covers up to [`NOTRANS_TILE_ROWS`] contiguous rows; within a
            // gridblock, per-thread column partials merge pairwise, not in
            // one long sequential chain. Partials live in fixed stack
            // tiles (no heap allocation on the hot path) and every column
            // slice touched is contiguous, so the matrix streams through
            // cache with full line utilization even when one block
            // overflows L2. Tiling the rows does not change any element's
            // summation tree — the pairwise vector merge is elementwise.
            let mut i0 = 0;
            for dst in y.chunks_mut(NOTRANS_TILE_ROWS) {
                let mut partial = [S::zero(); NOTRANS_TILE_ROWS];
                notrans_pairwise_tile(a, lda, x, i0, dst.len(), 0, n, &mut partial);
                for (yi, &pi) in dst.iter_mut().zip(&partial) {
                    let prior = if beta_zero { S::zero() } else { beta * *yi };
                    *yi = alpha.mul_add(pi, prior);
                }
                i0 += dst.len();
            }
        }
        GemvOp::Trans | GemvOp::ConjTrans => {
            trans_sweep(op == GemvOp::ConjTrans, alpha, a, lda, &x[..m], beta, &mut y[..n]);
        }
    }
}

/// The (conjugate-)transposed sweep: one dot product of length `x.len()`
/// per output element; the dot itself is a wavefront tree.
///
/// Its own function rather than an arm of [`gemv`]'s `match`: written
/// inline there, the pipeline's 16×256 adjoint measured ~5 % slower
/// (`bench_e2e` `paper_dd`, `adj_p50_us`, 0 of 5 pairs won).
fn trans_sweep<S: Scalar>(
    conj: bool,
    alpha: S,
    a: &[S],
    lda: usize,
    x: &[S],
    beta: S,
    y: &mut [S],
) {
    let beta_zero = beta == S::zero();
    for (j, yj) in y.iter_mut().enumerate() {
        let col = &a[j * lda..j * lda + x.len()];
        let acc = pairwise_dot(col, x, conj);
        let prior = if beta_zero { S::zero() } else { beta * *yj };
        *yj = alpha.mul_add(acc, prior);
    }
}

/// Sequential run length at the base of the pairwise trees (a GPU
/// thread's private accumulation before shuffles take over).
const PAIRWISE_BASE: usize = 16;

/// Pairwise (recursive-halving) dot product — the error class of a
/// wavefront tree reduction: `O(ε·log k)` worst case instead of
/// sequential summation's `O(ε·k)`.
fn pairwise_dot<S: Scalar>(col: &[S], x: &[S], conj: bool) -> S {
    debug_assert_eq!(col.len(), x.len());
    if col.len() <= PAIRWISE_BASE {
        let mut acc = S::zero();
        for (&aij, &xi) in col.iter().zip(x) {
            let v = if conj { aij.conj() } else { aij };
            acc = v.mul_add(xi, acc);
        }
        acc
    } else {
        let mid = col.len() / 2;
        pairwise_dot(&col[..mid], &x[..mid], conj) + pairwise_dot(&col[mid..], &x[mid..], conj)
    }
}

/// Row-tile height of the non-transpose column sweep — one gridblock's
/// worth of outputs, and the size of the stack-resident partial vectors.
const NOTRANS_TILE_ROWS: usize = 64;

/// One row tile of the pairwise-combined column sweep: the column range
/// `[j0, j1)` splits as a tree, base runs of ≤ [`PAIRWISE_BASE`] columns
/// accumulate sequentially into `acc[..rows]` — per element, the same
/// association the heap-allocating partial-vector merge produced, but
/// with stack tiles and contiguous `rows`-long column reads. Recursion
/// depth is `log₂(n/16)`, so worst-case stack use is a few KB of tiles.
fn notrans_pairwise_tile<S: Scalar>(
    a: &[S],
    lda: usize,
    x: &[S],
    i0: usize,
    rows: usize,
    j0: usize,
    j1: usize,
    acc: &mut [S; NOTRANS_TILE_ROWS],
) {
    if j1 - j0 <= PAIRWISE_BASE {
        // The vector kernels run the identical per-row accumulation
        // chain (rows are independent lanes), so results are
        // bit-identical whichever path executes.
        if crate::simd::notrans_tile(a, lda, x, i0, rows, j0, j1, &mut acc[..]) {
            return;
        }
        acc[..rows].fill(S::zero());
        for j in j0..j1 {
            let col = &a[j * lda + i0..j * lda + i0 + rows];
            let xj = x[j];
            for (p, &aij) in acc[..rows].iter_mut().zip(col) {
                *p = aij.mul_add(xj, *p);
            }
        }
    } else {
        let mid = j0 + (j1 - j0) / 2;
        notrans_pairwise_tile(a, lda, x, i0, rows, j0, mid, acc);
        let mut right = [S::zero(); NOTRANS_TILE_ROWS];
        notrans_pairwise_tile(a, lda, x, i0, rows, mid, j1, &mut right);
        for (l, &r) in acc[..rows].iter_mut().zip(&right[..rows]) {
            *l += r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::{Complex, SplitMix64};

    /// Naive oracle: dense triple loop in the obvious order.
    fn naive_gemv<S: Scalar>(
        op: GemvOp,
        alpha: S,
        a: &[S],
        lda: usize,
        x: &[S],
        beta: S,
        y: &mut [S],
        m: usize,
        n: usize,
    ) {
        let out_len = op.output_len(m, n);
        for k in 0..out_len {
            let mut acc = S::zero();
            match op {
                GemvOp::NoTrans => {
                    for j in 0..n {
                        acc += a[k + j * lda] * x[j];
                    }
                }
                GemvOp::Trans => {
                    for i in 0..m {
                        acc += a[i + k * lda] * x[i];
                    }
                }
                GemvOp::ConjTrans => {
                    for i in 0..m {
                        acc += a[i + k * lda].conj() * x[i];
                    }
                }
            }
            y[k] = alpha * acc + beta * y[k];
        }
    }

    fn fill<S: Scalar>(rng: &mut SplitMix64, len: usize) -> Vec<S> {
        (0..len)
            .map(|_| S::from_f64_parts(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect()
    }

    fn rel_err<S: Scalar>(a: &[S], b: &[S]) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            let (xr, xi) = x.to_f64_parts();
            let (yr, yi) = y.to_f64_parts();
            num += (xr - yr).powi(2) + (xi - yi).powi(2);
            den += yr * yr + yi * yi;
        }
        (num / den.max(1e-300)).sqrt()
    }

    fn check_kernel<S: Scalar>(m: usize, n: usize, batch: usize, op: GemvOp, tol: f64) {
        let mut rng = SplitMix64::new((m * 31 + n * 7 + batch) as u64);
        let g = BatchGeometry::packed(m, n, op, batch);
        let a: Vec<S> = fill(&mut rng, batch * m * n);
        let x: Vec<S> = fill(&mut rng, batch * op.input_len(m, n));
        let y0: Vec<S> = fill(&mut rng, batch * op.output_len(m, n));
        let alpha = S::from_f64_parts(1.25, -0.5);
        let beta = S::from_f64_parts(0.75, 0.25);

        let mut want = y0.clone();
        for b in 0..batch {
            let out_len = op.output_len(m, n);
            naive_gemv(
                op,
                alpha,
                &a[b * g.stride_a..],
                g.lda,
                &x[b * g.stride_x..b * g.stride_x + op.input_len(m, n)],
                beta,
                &mut want[b * g.stride_y..b * g.stride_y + out_len],
                m,
                n,
            );
        }
        let mut got = y0.clone();
        sbgemv(op, alpha, &a, &x, beta, &mut got, &g);
        let err = rel_err(&got, &want);
        assert!(err < tol, "{op} m={m} n={n} batch={batch}: err {err}");
    }

    #[test]
    fn all_ops_all_scalar_types_small() {
        for op in [GemvOp::NoTrans, GemvOp::Trans, GemvOp::ConjTrans] {
            check_kernel::<f32>(5, 13, 3, op, 1e-5);
            check_kernel::<f64>(5, 13, 3, op, 1e-13);
            check_kernel::<Complex<f32>>(5, 13, 3, op, 1e-5);
            check_kernel::<Complex<f64>>(5, 13, 3, op, 1e-13);
        }
    }

    #[test]
    fn short_wide_complex_double_conjtrans() {
        // The FFTMatvec phase-3 shape (scaled down): m ≪ n, complex.
        check_kernel::<Complex<f64>>(8, 200, 11, GemvOp::ConjTrans, 1e-12);
    }

    #[test]
    fn parallel_path_large_batch() {
        // Cross PAR_THRESHOLD to exercise the rayon path.
        check_kernel::<f64>(16, 64, 64, GemvOp::Trans, 1e-12);
    }

    #[test]
    fn uneven_sizes_hit_tile_and_simd_remainders() {
        // m % 4 != 0 and n not a multiple of 64.
        check_kernel::<f64>(7, 67, 2, GemvOp::Trans, 1e-13);
        check_kernel::<Complex<f32>>(3, 130, 2, GemvOp::ConjTrans, 1e-5);
        check_kernel::<f64>(1, 1, 1, GemvOp::Trans, 1e-14);
    }

    #[test]
    fn padded_lda_and_strides() {
        let (m, n, batch) = (4usize, 6usize, 3usize);
        let op = GemvOp::Trans;
        let mut rng = SplitMix64::new(77);
        let lda = m + 3;
        let stride_a = lda * n + 5;
        let stride_x = m + 2;
        let stride_y = n + 4;
        let g = BatchGeometry { m, n, lda, stride_a, stride_x, stride_y, batch };
        let a: Vec<f64> = fill(&mut rng, (batch - 1) * stride_a + lda * n);
        let x: Vec<f64> = fill(&mut rng, (batch - 1) * stride_x + m);
        let y0: Vec<f64> = fill(&mut rng, (batch - 1) * stride_y + n);

        let mut want = y0.clone();
        for b in 0..batch {
            naive_gemv(
                op,
                1.0,
                &a[b * stride_a..],
                lda,
                &x[b * stride_x..b * stride_x + m],
                0.0,
                &mut want[b * stride_y..b * stride_y + n],
                m,
                n,
            );
        }
        let mut got = y0.clone();
        sbgemv(op, 1.0, &a, &x, 0.0, &mut got, &g);
        // Padding between outputs must be untouched.
        for b in 0..batch - 1 {
            for p in n..stride_y {
                assert_eq!(got[b * stride_y + p], y0[b * stride_y + p], "padding clobbered");
            }
        }
        assert!(rel_err(&got, &want) < 1e-13);
    }

    #[test]
    fn conj_trans_differs_from_trans_for_complex() {
        let m = 4;
        let n = 4;
        let mut rng = SplitMix64::new(5);
        let a: Vec<Complex<f64>> = fill(&mut rng, m * n);
        let x: Vec<Complex<f64>> = fill(&mut rng, m);
        let g = BatchGeometry::packed(m, n, GemvOp::Trans, 1);
        let mut yt = vec![Complex::zero(); n];
        let mut yh = vec![Complex::zero(); n];
        sbgemv(GemvOp::Trans, Complex::one(), &a, &x, Complex::zero(), &mut yt, &g);
        sbgemv(GemvOp::ConjTrans, Complex::one(), &a, &x, Complex::zero(), &mut yh, &g);
        assert!(rel_err(&yt, &yh) > 1e-3, "conjugation should change the result");
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        // β=0 must not propagate NaNs from uninitialized y.
        let g = BatchGeometry::packed(3, 3, GemvOp::NoTrans, 1);
        let a = vec![1.0f64; 9];
        let x = vec![1.0f64; 3];
        let mut y = vec![f64::NAN; 3];
        // β·y with β=0 and y=NaN is NaN in IEEE; rocBLAS documents β=0 as
        // "y need not be set". Mirror that: multiply-by-zero semantics are
        // only safe because the kernel writes β·y = 0·NaN = NaN... so the
        // implementation must special-case β=0 like rocBLAS does.
        sbgemv(GemvOp::NoTrans, 1.0, &a, &x, 0.0, &mut y, &g);
        assert!(y.iter().all(|v| v.is_finite()), "beta=0 must ignore prior y");
    }
}
