//! The CPU execution of the SBGEMV: the batch layout the pipeline stores,
//! and Figure 1's per-matrix blocks as its reference.
//!
//! * **Frequency-minor** — [`sbgemv_freq_minor_many`] takes entry `(i, k)`
//!   of *all* matrices contiguous (`a[(i·n + k)·nfreq + f]`, the
//!   compact-batched layout) and vectors as `[series][freq]`, so a tile's
//!   outputs are consecutive batch items `f` of one output series and
//!   lanes run across the batch: the per-block loop disappears into the
//!   registers (2.6 ns per 4×4 block), and a caller whose vectors are FFT
//!   spectra — which are `[series][freq]` already — needs no reorder pass
//!   on either side. It is the α = 1, β = 0 case only, the one the
//!   pipeline runs, over a batch of columns through one operator in
//!   **register panels**: one loop nest whose plan (`panel_plan`) takes
//!   four columns of two series while four columns are left — each
//!   register of `a` loaded and prepared once per reduction step feeds
//!   four columns' accumulators — and one column of four series otherwise.
//!   [`sbgemv_freq_minor`], a single vector, is a panel of one column. The
//!   two are the only kernels `fftmatvec_core` executes.
//! * **Per-matrix blocks** — [`sbgemv`] computes `y_b = α·op(A_b)·x_b +
//!   β·y_b` for every column-major matrix in the batch with one loop nest,
//!   `gemv`: the outputs are cut into tiles of [`crate::OPT_TILE_COLS`] —
//!   *rows* for non-transpose, *columns* for (conjugate-)transpose, the
//!   paper's Section 3.1.1 geometry — and each tile's base runs are one
//!   scalar FMA-context pass. It is the strided batched GEMV of Figure 1
//!   and the bit oracle the frequency-minor kernel is held against; no
//!   apply runs it, so it has no vector tile of its own.
//!
//! The two *GPU* kernels of Figure 1 — rocBLAS's and the paper's — differ
//! in launch geometry, not in arithmetic, so they are modeled
//! ([`crate::dispatch`]) rather than executed twice; the executed block
//! kernel has the geometry of [`crate::KernelChoice::Optimized`].
//!
//! **Summation structure matters for the error analysis.** GPU GEMV
//! kernels never sum a length-k dot sequentially: threads hold partial
//! sums that are combined by wavefront-shuffle *trees*, so the rounding
//! error grows like `ε·√(log k)` rather than sequential summation's
//! `ε·√k`. The paper's measured mixed-precision errors (≲1e-7 with
//! `N_m = 5000` FP32 reductions) are only reachable with that structure,
//! so these CPU kernels use pairwise (recursive-halving) summation — the
//! same error class as the GPU tree reductions.
//!
//! **The tree is per output and fixed by the reduction length alone**
//! (`mid = r0 + (r1 − r0)/2`, sequential runs of ≤ 16 at the leaves), and
//! both layouts walk it through the same two functions: `reduce_tile`
//! (zeroed accumulators → `pairwise_tile` → the α/β epilogue) over a
//! layout-specific *base run*. A tile only decides which outputs share a
//! pass over the matrix: lanes and registers run *across* outputs, never
//! along the reduction, so tile width, lane width, panel width and thread
//! count cannot change a bit of any output — which is why the two sweeps
//! may tile differently (`TILE` outputs of a block, `FREQ_TILE`
//! frequencies of a panel's columns and series), why one may be vectorized
//! and the other not, and why a column in a panel of four has the bits of
//! the column run alone: the panel only decides which outputs share a
//! register of `a` (lanes across frequencies, registers across series and
//! columns), and the tree per output is unchanged. A reduction of at most
//! `PAIRWISE_BASE` steps is one base run, so a panel of any width there
//! applies the epilogue in its registers instead of through a tile — the
//! same operations on the same values.
//!
//! **Why lanes across frequencies cannot change a bit either.** Output
//! `y[o][f]` of the frequency-minor kernel and output `o` of block `f` of
//! [`sbgemv`] are the same expression: the same operands
//! (`op(A_f)[o, r]`, `x_f[r]`) enter the same `Complex::mul_add` in the
//! same order `r`, through the same tree, from the same `+0` start, into
//! the same `α.mul_add(acc, 0)` epilogue (which is not a no-op at α = 1:
//! it turns `−0` into `+0` and `0·∞` into NaN). Only *which other outputs
//! sit in the neighbouring lanes* differs — rows or columns of one block
//! there, the same entry of neighbouring frequencies here — and lanes do
//! not interact. `tests/simd_equivalence.rs` holds the two against each
//! other on bits for every scalar type, op and dispatch level, special
//! values included: one vector kernel against one scalar reference.
//!
//! **No `mul_add` outside an FMA context.** The workspace is not built
//! with `+fma`, so a scalar `mul_add` compiled on its own is a call into
//! libm. The four scalar loops here (`notrans_run`, `trans_run`,
//! `freq_run`, `scale_run`) are `#[inline(always)]` and run through
//! `notrans_pass` / `trans_pass` / `freq_pass` / `scale_pass`
//! ([`fftmatvec_numeric::fma_pass`]: the same body, once plainly and once
//! inside an `avx2,fma` wrapper) — the block sweeps always, the
//! frequency-minor sweep and the epilogue where no vector kernel of
//! `crate::simd` takes them (which inlines `scale_run` for its epilogue's
//! remainder). Both lowerings are correctly rounded, so the bits are the
//! same either way.

use core::mem::MaybeUninit;

use fftmatvec_numeric::{fma_pass, Scalar};

use crate::simd::PanelOut;
use crate::types::{BatchGeometry, GemvOp};

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
    for (b, chunk) in y.chunks_mut(stride).take(g.batch).enumerate() {
        let ab = &a[b * g.stride_a..];
        let xb = &x[b * g.stride_x..b * g.stride_x + op.input_len(g.m, g.n)];
        gemv(op, alpha, ab, g.lda, xb, beta, &mut chunk[..out_len], g.m, g.n);
    }
}

/// The α = 1, β = 0 SBGEMV `y_f = op(A_f)·x_f` over matrices stored
/// **frequency-minor**: entry `(i, k)` of all `nfreq` matrices is
/// contiguous, `a[(i·n + k)·nfreq + f]` (`A_f` is `m × n`), and so are the
/// vectors, `x[r·nfreq + f]` and `y[o·nfreq + f]` — the `[series][freq]`
/// layout the batched transforms emit and consume, so a caller holding
/// spectra needs no reorder on either side (see the module docs). A
/// register panel of one column: [`sbgemv_freq_minor_many`] with
/// `cols = 1`.
///
/// Every `y[o][f]` is bit-identical to what [`sbgemv`] writes for batch
/// item `f` with `α = 1`, `β = 0` (`y` is write-only). Allocation-free.
///
/// # Panics
/// If a slice length differs from what `m × n × nfreq` under `op` needs.
pub fn sbgemv_freq_minor<S: Scalar>(
    op: GemvOp,
    a: &[S],
    x: &[S],
    y: &mut [S],
    m: usize,
    n: usize,
    nfreq: usize,
) {
    sbgemv_freq_minor_many(op, a, x, y, m, n, nfreq, 1);
}

/// [`sbgemv_freq_minor`] over a batch of `cols` columns through one
/// operator: `x` holds `cols` back-to-back `[series][freq]` inputs
/// (`op.input_len(m, n)·nfreq` each) and `y` as many outputs. Every column
/// of `y` is bit-identical to [`sbgemv_freq_minor`] on that column alone.
///
/// The columns run in register panels, one loop nest for every width:
/// four at a time while four are left, then one at a time. In a panel of
/// four each register of `a` is loaded and prepared once per reduction
/// step and feeds all four columns' accumulators; every output keeps its
/// own pairwise tree, so the panel width cannot change a bit. Where no
/// vector kernel exists (the real and 16-bit types, the portable level)
/// each output run of a panel is one scalar pass. Allocation-free.
///
/// # Panics
/// If a slice length differs from what `cols` columns of `m × n × nfreq`
/// under `op` need.
#[allow(clippy::too_many_arguments)]
pub fn sbgemv_freq_minor_many<S: Scalar>(
    op: GemvOp,
    a: &[S],
    x: &[S],
    y: &mut [S],
    m: usize,
    n: usize,
    nfreq: usize,
    cols: usize,
) {
    let (outs, red) = (op.output_len(m, n), op.input_len(m, n));
    let (x_col, y_col) = (red * nfreq, outs * nfreq);
    assert!(
        m > 0 && n > 0 && nfreq > 0 && cols > 0 && a.len() == m * n * nfreq,
        "sbgemv_freq_minor: empty or mismatched {op}({m}x{n}) x {nfreq} batch"
    );
    assert!(
        x.len() == cols * x_col && y.len() == cols * y_col,
        "sbgemv_freq_minor: slices do not hold {cols} columns of {op}({m}x{n}) x {nfreq}"
    );
    // Entry (i, k) starts at (i·n + k)·nfreq: outputs are rows `i` and the
    // reduction runs over `k`, or the other way round.
    let (out_step, red_step) =
        if op.is_transposed() { (nfreq, n * nfreq) } else { (n * nfreq, nfreq) };
    let conj = op == GemvOp::ConjTrans;
    let mut c0 = 0;
    while c0 < cols {
        let (panel, group) = panel_plan(cols - c0);
        let x = &x[c0 * x_col..][..panel * x_col];
        let y = &mut y[c0 * y_col..][..panel * y_col];
        // Frequency tiles outermost, groups of output series inside: the
        // tile's slice of every `x` series is read once per group while it
        // is still cached (output rows outermost re-stream all of `x` per
        // row: 24 → 18 µs on 3×5×1025). One thread: no machine has measured
        // a threshold at which spreading the tiles over the pool pays for
        // this kernel.
        for f0 in (0..nfreq).step_by(FREQ_TILE) {
            let len = FREQ_TILE.min(nfreq - f0);
            for o0 in (0..outs).step_by(group) {
                let rows = group.min(outs - o0);
                let a = &a[o0 * out_step..];
                let (a_step, row_step, cols) = (red_step, out_step, panel);
                let sweep = PanelSweep { conj, a, a_step, row_step, rows, x, x_col, cols, nfreq };
                // A reduction of at most `PAIRWISE_BASE` steps is one base
                // run, so its tree is the run alone: the kernel applies the
                // epilogue in its registers and stores `y` directly.
                if red <= PAIRWISE_BASE {
                    let y = PanelOut::y(&mut y[o0 * nfreq + f0..], y_col, nfreq, len);
                    sweep.base_run(f0, 0, red, y);
                    continue;
                }
                let base_run = |r0, r1, acc: &mut [S]| {
                    sweep.base_run(f0, r0, r1, PanelOut::acc(acc, panel, rows))
                };
                reduce_tile::<S, FREQ_ACC>(red, panel * rows * len, base_run, |acc| {
                    for (k, acc) in acc.chunks_exact(len).enumerate() {
                        let (c, j) = (k / rows, k % rows);
                        let y = &mut y[c * y_col + (o0 + j) * nfreq + f0..][..len];
                        scale_into(S::one(), acc, None, y);
                    }
                });
            }
        }
        c0 += panel;
    }
}

/// The register panel for `left` columns still to run, as `(columns,
/// output series)`: four columns of two series (8 accumulators, 4 + 2
/// operand registers of the 16) while four are left, else one column of
/// four series, each `x` register reused across them. The vector kernel
/// adds the frequency registers per series. Every output keeps its own
/// accumulator, so no bit depends on the plan.
fn panel_plan(left: usize) -> (usize, usize) {
    if left >= 4 {
        (4, 2)
    } else {
        (1, 4)
    }
}

/// Outputs per block-GEMV tile — rows of `y` for non-transpose, columns of
/// `A` for (conjugate-)transpose: one gridblock's worth of outputs (the
/// modeled optimized kernel's column tile) and the size of the
/// stack-resident accumulator vectors.
const TILE: usize = crate::OPT_TILE_COLS;

/// Frequencies per tile of the frequency-minor sweep. Twice the block
/// tile, so that the `N_t + 1 = 65` frequencies of a power-of-two series
/// are one tile and not 64 plus a one-frequency tail that re-walks the
/// whole tree for a single masked lane (`paper_mixed` F 1.12× at 64).
const FREQ_TILE: usize = 128;

/// Accumulators of one frequency-minor tile: the outputs of the widest
/// [`panel_plan`], eight runs (four columns of two series, or one column of
/// four) of [`FREQ_TILE`] frequencies.
const FREQ_ACC: usize = 8 * FREQ_TILE;

/// Sequential run length at the base of the pairwise trees (a GPU
/// thread's private accumulation before shuffles take over).
const PAIRWISE_BASE: usize = 16;

/// GEMV on one matrix (column-major, leading dim `lda`).
///
/// **Extent precondition**: `lda ≥ m`, `a.len() ≥ (n−1)·lda + m`,
/// `x.len() ≥ op.input_len(m, n)` and `y.len() ≥ op.output_len(m, n)`, so
/// that `a[j·lda + i]` is in bounds for every `i < m`, `j < n`.
/// [`sbgemv`] establishes it per batch item through
/// [`BatchGeometry::validate`]; it is asserted again here so a violation
/// names the matrix instead of an index deep in a base run.
pub(crate) fn gemv<S: Scalar>(
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
    let (outs, red) = (op.output_len(m, n), op.input_len(m, n));
    assert!(
        m > 0 && n > 0 && lda >= m && a.len() >= (n - 1) * lda + m,
        "gemv: {m}x{n} matrix (lda {lda}) exceeds a.len() = {}",
        a.len()
    );
    assert!(x.len() >= red && y.len() >= outs, "gemv: x or y shorter than {op}({m}x{n}) needs");
    // BLAS convention: β = 0 means y is write-only (never read), so prior
    // NaN/uninitialized contents must not propagate.
    let beta = (beta != S::zero()).then_some(beta);
    let sweep = Sweep { op, a, lda, x };
    let mut o0 = 0;
    for dst in y[..outs].chunks_mut(TILE) {
        let base_run = |r0, r1, acc: &mut [S]| sweep.base_run(o0, r0, r1, acc);
        reduce_tile::<S, TILE>(red, dst.len(), base_run, |acc| scale_into(alpha, acc, beta, dst));
        o0 += dst.len();
    }
}

/// One tile of `outs ≤ T` outputs, start to finish: a zeroed stack
/// accumulator per output, the reduction range `[0, red)` walked through
/// [`pairwise_tile`] with the layout's `base_run`, and the sums handed to
/// the `epilogue` (which writes them through [`scale_into`]). Both
/// layouts' kernels are loops over this function, so the tree is stated
/// once.
fn reduce_tile<S: Scalar, const T: usize>(
    red: usize,
    outs: usize,
    base_run: impl Fn(usize, usize, &mut [S]),
    epilogue: impl FnOnce(&[S]),
) {
    let mut acc = [MaybeUninit::uninit(); T];
    let acc = zeroed(&mut acc, outs);
    pairwise_tile::<S, T>(0, red, acc, &base_run);
    epilogue(acc);
}

/// The first `len` elements of a stack tile of capacity `T`, zeroed; the
/// rest stays untouched, so a tile costs the outputs it holds and not its
/// capacity (a register panel's `Complex<f64>` tile is 16 KB, of which a
/// 65-frequency tile of two series uses half).
fn zeroed<S: Scalar, const T: usize>(tile: &mut [MaybeUninit<S>; T], len: usize) -> &mut [S] {
    let head = &mut tile[..len];
    for e in head.iter_mut() {
        e.write(S::zero());
    }
    // SAFETY: every element of `head` was just initialized, and
    // `MaybeUninit<S>` has the layout of `S`.
    unsafe { &mut *(head as *mut [MaybeUninit<S>] as *mut [S]) }
}

/// **The reduction tree** of every SBGEMV output, whichever layout the
/// matrices are stored in: the range `[r0, r1)` splits at
/// `mid = r0 + (r1 − r0)/2`, base runs of ≤ [`PAIRWISE_BASE`] accumulate
/// sequentially into `acc` (`base_run(r0, r1, acc)` overwrites `acc` with
/// the run's sums, one independent chain per output of the tile), and the
/// right half is added elementwise — per output, the association of a
/// recursive-halving dot product, but with one pass over the matrix per
/// tile instead of per output. Partials live in fixed stack tiles of `T`
/// (the caller's tile width; no heap allocation on the hot path);
/// recursion depth is `log₂(len/16)`, one tile per level — at most 16 KB
/// each (a `Complex<f64>` frequency-minor tile), so `N_m = 5000` takes
/// ≈ 160 KB of stack.
fn pairwise_tile<S: Scalar, const T: usize>(
    r0: usize,
    r1: usize,
    acc: &mut [S],
    base_run: &impl Fn(usize, usize, &mut [S]),
) {
    if r1 - r0 <= PAIRWISE_BASE {
        base_run(r0, r1, acc);
    } else {
        let mid = r0 + (r1 - r0) / 2;
        pairwise_tile::<S, T>(r0, mid, acc, base_run);
        let mut right = [MaybeUninit::uninit(); T];
        let right = zeroed(&mut right, acc.len());
        pairwise_tile::<S, T>(mid, r1, right, base_run);
        for (l, &r) in acc.iter_mut().zip(right.iter()) {
            *l += r;
        }
    }
}

/// One matrix's sweep as the tile recursion sees it: which dimension the
/// outputs run along is `op`'s business, confined to the base case.
struct Sweep<'a, S> {
    op: GemvOp,
    a: &'a [S],
    lda: usize,
    x: &'a [S],
}

impl<S: Scalar> Sweep<'_, S> {
    /// The base case of output tile `[o0, o0 + acc.len())`: `acc[k] = Σ_{r0 ≤ r < r1} op(A)[o0 + k, r]·x[r]`,
    /// summed sequentially from zero in increasing `r` by one scalar
    /// `fma_pass!` (no vector tile: this is Figure 1's reference).
    fn base_run(&self, o0: usize, r0: usize, r1: usize, acc: &mut [S]) {
        let Sweep { op, a, lda, x } = *self;
        match op {
            GemvOp::NoTrans => notrans_pass(a, lda, x, o0, r0, r1, acc),
            GemvOp::Trans => trans_pass(false, a, lda, x, o0, r0, r1, acc),
            GemvOp::ConjTrans => trans_pass(true, a, lda, x, o0, r0, r1, acc),
        }
    }
}

/// `rows` consecutive output series of `cols` columns of a
/// frequency-minor batch as the tile recursion sees them: `a` starts at
/// the first series' first entry, series `j` starts `j·row_step` further
/// on, and reduction step `r` of column `c` pairs
/// `a[j·row_step + r·a_step + f]` with `x[c·x_col + r·nfreq + f]`. A
/// tile's outputs are `cols·rows` runs of consecutive frequencies `f`,
/// column by column, series-major within one.
///
/// **Extent precondition** of the vector kernel's unchecked loads,
/// established by [`sbgemv_freq_minor_many`]'s length assertions:
/// `a.len() ≥ (rows − 1)·row_step + (red − 1)·a_step + nfreq` and
/// `x.len() ≥ (cols − 1)·x_col + red·nfreq` for the reduction length `red`
/// the tiles are driven over, and every tile `[f0, f0 + len)` inside
/// `[0, nfreq)`.
struct PanelSweep<'a, S> {
    conj: bool,
    a: &'a [S],
    a_step: usize,
    row_step: usize,
    rows: usize,
    x: &'a [S],
    x_col: usize,
    cols: usize,
    nfreq: usize,
}

impl<S: Scalar> PanelSweep<'_, S> {
    /// The base case of frequency tile `[f0, f0 + out.len)` of every
    /// column: run `(c, j)` gets `Σ_{r0 ≤ r < r1} op(a[j][r][f])·x[c][r][f]`,
    /// summed sequentially from zero in increasing `r` — per output the
    /// chain of [`Sweep::base_run`] on that frequency's block — stored as
    /// `out` says. Where no vector kernel takes it, each run is one scalar
    /// pass (through a tile and the epilogue when `out` is `y`).
    fn base_run(&self, f0: usize, r0: usize, r1: usize, mut out: PanelOut<'_, S>) {
        let PanelSweep { conj, a, a_step, row_step, rows, x, x_col, cols, nfreq } = *self;
        let (a_geom, x_geom) = ((a, a_step, row_step, rows), (x, x_col, cols, nfreq));
        if crate::simd::freq_panel(conj, a_geom, x_geom, (f0, r0, r1), &mut out) {
            return;
        }
        let PanelOut { out: runs, col_ld, row_ld, len, epilogue } = out;
        let mut tile = [MaybeUninit::uninit(); FREQ_TILE];
        let acc = zeroed(&mut tile, len);
        for k in 0..cols * rows {
            let (c, j) = (k / rows, k % rows);
            let (a, x) = (&a[j * row_step..], &x[c * x_col..]);
            let run = &mut runs[c * col_ld + j * row_ld..][..len];
            let sums = if epilogue { &mut *acc } else { &mut *run };
            freq_pass(conj, a, a_step, x, nfreq, f0, r0, r1, sums);
            if epilogue {
                scale_into(S::one(), acc, None, run);
            }
        }
    }
}

/// Scalar non-transpose base run over rows `[i0, i0 + acc.len())`:
/// columns `[j0, j1)` in order, every column slice read contiguous.
/// `#[inline(always)]`, like the other three `*_run` loops, so that it is
/// compiled in its caller's FMA context (see the module docs).
#[inline(always)]
fn notrans_run<S: Scalar>(
    a: &[S],
    lda: usize,
    x: &[S],
    i0: usize,
    j0: usize,
    j1: usize,
    acc: &mut [S],
) {
    acc.fill(S::zero());
    for j in j0..j1 {
        let col = &a[j * lda + i0..j * lda + i0 + acc.len()];
        let xj = x[j];
        for (p, &aij) in acc.iter_mut().zip(col) {
            *p = aij.mul_add(xj, *p);
        }
    }
}

/// Scalar (conjugate-)transpose base run over columns
/// `[j0, j0 + acc.len())`: rows `[i0, i1)` in order. Rows outermost, so
/// the columns' chains interleave instead of each waiting out its own FMA
/// latency (5–8 % faster than column-by-column on the 16×256 block).
#[inline(always)]
fn trans_run<S: Scalar>(
    conj: bool,
    a: &[S],
    lda: usize,
    x: &[S],
    j0: usize,
    i0: usize,
    i1: usize,
    acc: &mut [S],
) {
    acc.fill(S::zero());
    for i in i0..i1 {
        let xi = x[i];
        for (c, p) in acc.iter_mut().enumerate() {
            let aij = a[(j0 + c) * lda + i];
            let v = if conj { aij.conj() } else { aij };
            *p = v.mul_add(xi, *p);
        }
    }
}

/// Scalar frequency-minor base run over frequencies
/// `[f0, f0 + acc.len())` of one output series: reduction steps `[r0, r1)`
/// in order, both operands read contiguous. Elementwise in `f`, so the
/// per-output chain is `trans_run`'s (`conj`) resp. `notrans_run`'s.
#[inline(always)]
fn freq_run<S: Scalar>(
    conj: bool,
    a: &[S],
    a_step: usize,
    x: &[S],
    nfreq: usize,
    f0: usize,
    r0: usize,
    r1: usize,
    acc: &mut [S],
) {
    acc.fill(S::zero());
    for r in r0..r1 {
        let ar = &a[r * a_step + f0..][..acc.len()];
        let xr = &x[r * nfreq + f0..][..acc.len()];
        for ((p, &af), &xf) in acc.iter_mut().zip(ar).zip(xr) {
            let v = if conj { af.conj() } else { af };
            *p = v.mul_add(xf, *p);
        }
    }
}

/// The α/β epilogue of one tile: `y = α·acc + β·y`, `y` write-only when
/// `beta` is `None`. Always the full `mul_add`, α = 1 included: a
/// shortcut would keep a −0 that the full operation returns as +0, and
/// the determinism digests hash bits.
fn scale_into<S: Scalar>(alpha: S, acc: &[S], beta: Option<S>, y: &mut [S]) {
    if !crate::simd::scale_tile(alpha, acc, beta, y) {
        scale_pass(alpha, acc, beta, y);
    }
}

/// Scalar epilogue (and the vector epilogues' remainder).
#[inline(always)]
pub(crate) fn scale_run<S: Scalar>(alpha: S, acc: &[S], beta: Option<S>, y: &mut [S]) {
    for (yi, &pi) in y.iter_mut().zip(acc) {
        let prior = beta.map_or(S::zero(), |b| b * *yi);
        *yi = alpha.mul_add(pi, prior);
    }
}

// Figure 1's block sweeps, and what no vector tile takes at an AVX2-class
// level — the real and 16-bit types' frequency-minor sweep and epilogue —
// run the scalar loops as one pass each (at the portable level a pass is
// its plain body).
fma_pass! {
    fn notrans_pass<S: Scalar>(
        a: &[S], lda: usize, x: &[S], i0: usize, j0: usize, j1: usize, acc: &mut [S],
    ) {
        notrans_run(a, lda, x, i0, j0, j1, acc)
    }
}

fma_pass! {
    fn trans_pass<S: Scalar>(
        conj: bool, a: &[S], lda: usize, x: &[S], j0: usize, i0: usize, i1: usize, acc: &mut [S],
    ) {
        trans_run(conj, a, lda, x, j0, i0, i1, acc)
    }
}

fma_pass! {
    fn freq_pass<S: Scalar>(
        conj: bool, a: &[S], a_step: usize, x: &[S], nfreq: usize, f0: usize, r0: usize, r1: usize,
        acc: &mut [S],
    ) {
        freq_run(conj, a, a_step, x, nfreq, f0, r0, r1, acc)
    }
}

fma_pass! {
    fn scale_pass<S: Scalar>(alpha: S, acc: &[S], beta: Option<S>, y: &mut [S]) {
        scale_run(alpha, acc, beta, y)
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

    /// The arithmetic `Trans`/`ConjTrans` executed before the column
    /// tile, kept as the reference: one recursive-halving dot per output.
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

    fn bits<S: Scalar>(v: S) -> (u64, u64) {
        let (re, im) = v.to_f64_parts();
        (re.to_bits(), im.to_bits())
    }

    /// Every transposed output equals the per-column pairwise dot on
    /// bits, under both epilogues: β = 0 over NaN-prefilled `y`, and a
    /// general α/β.
    fn check_transposed_tree<S: Scalar>(op: GemvOp, m: usize, n: usize, lda: usize) {
        let mut rng = SplitMix64::new((m * 131 + n) as u64);
        let g = BatchGeometry { m, n, lda, stride_a: lda * n, stride_x: m, stride_y: n, batch: 2 };
        let a: Vec<S> = fill(&mut rng, 2 * lda * n);
        let x: Vec<S> = fill(&mut rng, 2 * m);
        let y0: Vec<S> = fill(&mut rng, 2 * n);
        let nan = S::from_f64_parts(f64::NAN, f64::NAN);
        let general = (S::from_f64_parts(1.25, -0.5), S::from_f64_parts(0.75, 0.25));
        for (alpha, beta) in [(S::one(), S::zero()), general] {
            let beta_zero = beta == S::zero();
            let mut y = if beta_zero { vec![nan; 2 * n] } else { y0.clone() };
            sbgemv(op, alpha, &a, &x, beta, &mut y, &g);
            for (k, &got) in y.iter().enumerate() {
                let (b, j) = (k / n, k % n);
                let col = &a[b * g.stride_a + j * lda..][..m];
                let dot = pairwise_dot(col, &x[b * m..(b + 1) * m], op == GemvOp::ConjTrans);
                let prior = if beta_zero { S::zero() } else { beta * y0[k] };
                let want = alpha.mul_add(dot, prior);
                assert_eq!(bits(got), bits(want), "{op} {m}x{n} lda={lda} y[{b}][{j}]");
            }
        }
    }

    /// Shapes on both sides of `PAIRWISE_BASE` and of every lane,
    /// register-group and tile width; packed and padded `lda`.
    fn check_transposed_trees<S: Scalar>() {
        for (m, n) in [(16, 256), (1, 1), (15, 17), (17, 33), (33, 7), (67, 130)] {
            for op in [GemvOp::Trans, GemvOp::ConjTrans] {
                check_transposed_tree::<S>(op, m, n, m);
                check_transposed_tree::<S>(op, m, n, m + 3);
            }
        }
    }

    #[test]
    fn transposed_tree_is_pinned_bit_for_bit() {
        use fftmatvec_numeric::half::{bf16, f16};
        use fftmatvec_numeric::simd::{active_level, level_supported, set_active_level, SimdLevel};

        // The level is process-global; sibling tests running meanwhile
        // are level-agnostic (every level computes the same bits).
        let prev = active_level();
        for level in [SimdLevel::Portable, SimdLevel::Avx2] {
            if !level_supported(level) {
                continue;
            }
            set_active_level(level);
            check_transposed_trees::<f32>();
            check_transposed_trees::<f64>();
            check_transposed_trees::<f16>();
            check_transposed_trees::<bf16>();
            check_transposed_trees::<Complex<f32>>();
            check_transposed_trees::<Complex<f64>>();
            check_transposed_trees::<Complex<f16>>();
            check_transposed_trees::<Complex<bf16>>();
        }
        set_active_level(prev);
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
        // Pins the large batch (16·64·64 MACs) that the reference kernel's
        // parallel fork ran before it became one serial loop.
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
