//! Batched FFT execution — the stand-in for `cufftPlanMany`.
//!
//! FFTMatvec's phase 2 transforms `N_m` independent time series at once
//! (phase 4: `N_d` series). The batched drivers here run every series
//! through one cached plan (see [`crate::cache`]) and draw per-worker
//! scratch vectors from a [`WorkspacePool`] instead of allocating per
//! call. Every driver cuts its batch into chunks and walks them through
//! the library's one parallel-for, [`crate::par`], which decides serial
//! or parallel, builds the per-worker states and keeps the results
//! byte-identical at any `RAYON_NUM_THREADS`.
//!
//! The padded entry points of [`BatchedRealFft`] — the block-triangular
//! apply's FFT and IFFT phases — choose a group width once per call and
//! run every group through one body. Short `f32` / `f64` power-of-two
//! transforms run with the **series in the SIMD lanes**: each group of 4
//! (`f64`) or 8 (`f32`) consecutive series runs its transforms together,
//! one register per real or imaginary part of a value (see
//! `crate::simd`), read from and written to the TOSI matrix in place.
//! Lanes run across series only, so every series gets the bits of its
//! own per-series transform. Other batches run per series: one series per
//! group, in place, up to `STAGE` series, and groups of `STAGE` through a
//! staging block beyond; the lanes path's remainder group stages too.
//! Only a group that stages checks a staging block out.
//!
//! The **column transforms** of [`BatchedFft`]
//! ([`BatchedFft::forward_columns`] / `inverse_columns`) are the outer
//! axes of a multi-level transform: the transforms of the columns of a
//! time-outer/series-inner complex matrix, read (forward) or written
//! (inverse) in place, of which only the first `head` rows are stored —
//! the rest of each column is `+0` going in and dropped coming out. The
//! spectra are series-major, `ld` apart, so a caller's rotation of axes
//! is the driver's loads and stores. They choose groups as the padded
//! entry points do: a power-of-two `f32` / `f64` plan runs each lane group
//! with the series in the lanes, the first stage reading the group's rows
//! (and the inverse's last stage storing them, scaled) in place and a
//! lane transpose moving the spectra; every other group runs one column
//! at a time, gathered into its spectrum's storage.
//!
//! The **row transforms** of [`BatchedRealFft`]
//! ([`BatchedRealFft::forward_rows`] / `inverse_rows`) are the innermost
//! axis of a multi-level real transform: the R2C of each row of a
//! row-major `f64` matrix, zero-padded from its `head` samples to `n`,
//! and the C2R that keeps the first `keep` samples of each — the pad and
//! the unpad of the embedding folded into the first and last passes, with
//! the bits of the rows padded into a buffer and run through
//! `forward_batch` (and `inverse_batch`, then unpadded). A lane group of
//! 4 (`f64`) or 8 (`f32`) rows runs with the rows in the lanes, the first
//! stage reading them through a transposing load (one 2-sample load per
//! row, shuffled into the real and imaginary registers; operands past the
//! head `+0` registers, never loaded) and the inverse's last stage storing
//! the kept samples through the mirrored transposing store; any other row
//! is padded into scratch and transformed through its plan.
//!
//! A batch of **columns** through one operator
//! ([`BatchedRealFft::forward_padded_many`] / `inverse_unpadded_many`,
//! one TOSI matrix per column) runs column by column when a column's
//! series fill whole lane groups, and otherwise as one batch of all the
//! columns' series laid side by side by a staging copy, so that lane
//! groups straddle columns instead of leaving each column a remainder —
//! the two series of a 2×16 operator's narrow side fill a 4-wide `f64`
//! group from two columns. Every series keeps its own transform's bits.

use fftmatvec_numeric::complex::as_flat_mut;
use fftmatvec_numeric::ndindex::transpose_map;
use fftmatvec_numeric::workspace::{Checkout, WorkspacePool};
use fftmatvec_numeric::{with_real, Complex, Precision, Real};

use crate::cache::{self, PlanHandle, RealPlanHandle};
use crate::iterative::IterativeFft;
use crate::padded::{
    ComplexColumn, ComplexColumnOut, PaddedRows, PaddedSeries, Sink, Source, UnpaddedRows,
    UnpaddedSeries,
};
use crate::par::{for_each_chunk, for_each_chunk_mut};
use crate::plan::{FftDirection, FftPlan};
use crate::real::RealFftPlan;
use crate::simd::{self, Lanes};

/// Per-worker scratch vectors of one batched driver.
type ScratchPool<T> = WorkspacePool<Vec<Complex<T>>>;

/// Check a scratch vector out of `pool`, sized to `len`. Contents are
/// unspecified — FFT execution overwrites scratch before reading it.
fn scratch<T: Real>(pool: &ScratchPool<T>, len: usize) -> Checkout<'_, Vec<Complex<T>>> {
    let mut guard = pool.checkout();
    guard.ws().resize(len, Complex::zero());
    guard
}

/// Batched complex transforms sharing one cached [`FftPlan`].
pub struct BatchedFft<T: Real> {
    plan: PlanHandle<T>,
    pool: ScratchPool<T>,
}

impl<T: Real> BatchedFft<T> {
    pub fn new(n: usize) -> Self {
        BatchedFft { plan: cache::complex_plan::<T>(n), pool: ScratchPool::default() }
    }

    /// Transform length per batch item.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Access the underlying shared plan.
    pub fn plan(&self) -> &FftPlan<T> {
        &self.plan
    }

    /// The cache handle itself — clone it to share the plan elsewhere.
    pub fn plan_handle(&self) -> &PlanHandle<T> {
        &self.plan
    }

    /// Scratch vectors currently parked in this driver's pool: at most
    /// one per worker that ran a chunk of the last parallel batch.
    pub fn scratch_pooled(&self) -> usize {
        self.pool.pooled()
    }

    /// Out-of-place batched transform. Layout is batch-major contiguous:
    /// `input[b*n..][..n]` is batch item `b`. Lengths must be equal and a
    /// multiple of `n`.
    pub fn process_batch(
        &self,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        dir: FftDirection,
    ) {
        let n = self.plan.len();
        assert_eq!(input.len(), output.len(), "batched FFT in/out length mismatch");
        assert_eq!(input.len() % n, 0, "batched FFT length not a multiple of n");
        let init = || scratch(&self.pool, self.plan.scratch_len());
        for_each_chunk_mut(input.len(), output, n, init, |scratch, (b, o)| {
            self.plan.process(&input[b * n..][..n], o, scratch.ws(), dir)
        });
    }

    /// In-place batched transform: each `data[b*n..][..n]` chunk is
    /// transformed in its own storage — the hot path when the caller owns
    /// the buffer and has no use for the untransformed data.
    pub fn process_batch_inplace(&self, data: &mut [Complex<T>], dir: FftDirection) {
        let n = self.plan.len();
        assert_eq!(data.len() % n, 0, "batched FFT length not a multiple of n");
        let init = || scratch(&self.pool, self.plan.scratch_len());
        for_each_chunk_mut(data.len(), data, n, init, |scratch, (_, chunk)| {
            self.plan.process_inplace(chunk, scratch.ws(), dir)
        });
    }

    /// Forward transforms of the `n_series` columns of a
    /// time-outer/series-inner complex matrix, read in place: `input`
    /// holds its first `head = input.len() / n_series` rows (`1 ≤ head ≤
    /// n`), and every later row of the `n` a transform reads is zero —
    /// never stored or loaded. The spectrum of column `k` lands in
    /// `output[k·ld..][..n]`, where `ld ≥ n` and `output.len() =
    /// (n_series − 1)·ld + n`: a series stride `ld` wider than `n` leaves
    /// room between spectra for other calls' — the rotated layout of a
    /// multi-level transform. What lies between the spectra is not
    /// touched.
    ///
    /// The columns run in groups of adjacent ones, through one
    /// parallel-for: a lane group wide (4 `f64` or 8 `f32` columns) when
    /// the plan takes the series-in-lanes path (the first stage reads the
    /// group's rows in place, the rest run planar, and a transpose stores
    /// the spectra), `STAGE` wide otherwise. A group the lanes do not take — the
    /// remainder, or every group at the portable level, in a 16-bit tier
    /// or for another schedule — runs one column at a time: gathered into
    /// its spectrum's storage, zero-extended and transformed in place.
    /// Every column gets the bits of its own transform either way.
    pub fn forward_columns(
        &self,
        input: &[Complex<T>],
        n_series: usize,
        output: &mut [Complex<T>],
        ld: usize,
    ) {
        let n = self.plan.len();
        let head = self.column_rows(input.len(), n_series, output.len(), ld);
        let (width, lanes) = self.groups(n_series);
        let init = || self.buffers(lanes);
        for_each_chunk_mut(n_series * n, output, width * ld, init, |scratch, (g, out)| {
            let cols = width.min(n_series - g * width);
            let out = &mut out[..(cols - 1) * ld + n];
            let src = ComplexColumn::new(&input[g * width..], n_series, head, n);
            match lanes {
                Some((lanes, engine)) if cols == width => {
                    let e = width * n;
                    let (z, _) = lanes_forward(lanes, engine, &src, planar(scratch.ws(), e), e);
                    simd::lanes_to_series(lanes, z, out, ld);
                }
                _ => self.forward_series(&src, cols, out, ld, scratch.ws()),
            }
        });
    }

    /// Inverse transforms (scaled by `1/n`) of `n_series` spectra,
    /// spectrum `k` at `spectra[k·ld..][..n]` (the layout
    /// [`Self::forward_columns`] writes; their contents are clobbered),
    /// that keep the first `head = output.len() / n_series` rows of each
    /// (`1 ≤ head ≤ n`) as column `k` of the time-outer/series-inner
    /// complex matrix `output`. The groups are those of `forward_columns`;
    /// a lane group's spectra are transposed into planar buffers, every
    /// stage but the last runs planar, and the last scales and stores only
    /// the kept rows into the matrix in place. A group the lanes do not
    /// take transforms each spectrum in place and stores its kept rows.
    pub fn inverse_columns(
        &self,
        spectra: &mut [Complex<T>],
        ld: usize,
        output: &mut [Complex<T>],
        n_series: usize,
    ) {
        let n = self.plan.len();
        let head = self.column_rows(output.len(), n_series, spectra.len(), ld);
        let (width, lanes) = self.groups(n_series);
        let out = Interleaved(output.as_mut_ptr());
        let init = || self.buffers(lanes);
        for_each_chunk_mut(n_series * n, spectra, width * ld, init, |scratch, (g, spec)| {
            let cols = width.min(n_series - g * width);
            let spec = &mut spec[..(cols - 1) * ld + n];
            // SAFETY: `output` is exclusively borrowed for the whole call
            // and holds `head` rows of `n_series`; group `g` writes only
            // its own columns, `g·width..`, disjoint from every other
            // group's.
            let mut sink =
                unsafe { ComplexColumnOut::new(out.get().add(g * width), n_series, head, n, cols) };
            match lanes {
                Some((lanes, engine)) if cols == width => {
                    let (a, b) = planar(scratch.ws(), width * n);
                    simd::lanes_from_series(lanes, spec, ld, a);
                    lanes_inverse(lanes, engine, a, b, &mut sink);
                }
                _ => self.inverse_series(spec, ld, &mut sink, scratch.ws()),
            }
        });
    }

    /// The rows of a column batch's `matrix`-element TOSI matrix of
    /// `n_series` columns, once the batch's extents are checked.
    fn column_rows(&self, matrix: usize, n_series: usize, spectra: usize, ld: usize) -> usize {
        let n = self.plan.len();
        assert!(
            n_series > 0 && matrix % n_series == 0 && (1..=n).contains(&(matrix / n_series)),
            "column batch: {matrix} elements are not 1..={n} rows of {n_series} columns"
        );
        assert!(
            ld >= n && spectra == (n_series - 1) * ld + n,
            "column batch: {spectra} spectrum elements for {n_series} series of {n}, {ld} apart"
        );
        matrix / n_series
    }

    /// The group width of a column batch of `n_series`, and the lanes
    /// path when its full groups run in the lanes.
    fn groups(&self, n_series: usize) -> (usize, LanePath<'_, T>) {
        match lane_path(&self.plan).filter(|(l, _)| n_series >= l.width()) {
            Some(lanes) => (lanes.0.width(), Some(lanes)),
            None => (STAGE, None),
        }
    }

    /// One worker's plan scratch, with room for the planar buffers on the
    /// lanes path.
    fn buffers(&self, lanes: LanePath<'_, T>) -> Checkout<'_, Vec<Complex<T>>> {
        let n = self.plan.len();
        let planar = lanes.map_or(0, |(lanes, _)| planar_scratch_len::<T>(lanes.width() * n));
        scratch(&self.pool, planar.max(self.plan.scratch_len()))
    }

    /// The forward transforms of the first `cols` columns of `src`, one at
    /// a time, into `out` (`ld` apart): the rows gathered into each
    /// spectrum's storage, the rest zero-filled, each transformed in place.
    fn forward_series(
        &self,
        src: &ComplexColumn<'_, T>,
        cols: usize,
        out: &mut [Complex<T>],
        ld: usize,
        scratch: &mut [Complex<T>],
    ) {
        let (n, head) = (self.plan.len(), src.rows());
        for t in 0..head {
            for (k, &v) in src.row(t, cols).iter().enumerate() {
                out[k * ld + t] = v;
            }
        }
        for series in out.chunks_mut(ld) {
            let series = &mut series[..n];
            series[head..].fill(Complex::zero());
            self.plan.process_inplace(series, scratch, FftDirection::Forward);
        }
    }

    /// The inverse transforms of the spectra of `sink`'s columns (`ld`
    /// apart in `spec`), one at a time in place, then their kept rows
    /// stored into the columns.
    fn inverse_series(
        &self,
        spec: &mut [Complex<T>],
        ld: usize,
        sink: &mut ComplexColumnOut<T>,
        scratch: &mut [Complex<T>],
    ) {
        let n = self.plan.len();
        for series in spec.chunks_mut(ld) {
            self.plan.process_inplace(&mut series[..n], scratch, FftDirection::Inverse);
        }
        for t in 0..sink.rows() {
            for (k, series) in spec.chunks(ld).enumerate() {
                sink.store(t, k, series[t]);
            }
        }
    }

    /// Allocating forward batch.
    pub fn forward_batch_vec(&self, input: &[Complex<T>]) -> Vec<Complex<T>> {
        let mut out = vec![Complex::zero(); input.len()];
        self.process_batch(input, &mut out, FftDirection::Forward);
        out
    }

    /// Allocating inverse batch.
    pub fn inverse_batch_vec(&self, input: &[Complex<T>]) -> Vec<Complex<T>> {
        let mut out = vec![Complex::zero(); input.len()];
        self.process_batch(input, &mut out, FftDirection::Inverse);
        out
    }
}

/// Batched real transforms sharing one cached [`RealFftPlan`].
pub struct BatchedRealFft<T: Real> {
    plan: RealPlanHandle<T>,
    pool: ScratchPool<T>,
    /// Per-worker staging blocks of the padded entry points' staged
    /// groups.
    stage: WorkspacePool<Vec<f64>>,
    /// May the padded entry points take the series-in-lanes path?
    lanes: bool,
}

/// Series per group of a padded batch the lanes path does not take (the
/// lanes path's groups are [`Lanes::width`] wide). A batch of at most this
/// many series runs one series per group, read and written in place at
/// its own stride, so each series is a task of its own above the parallel
/// threshold. A wider one runs in groups of this many, whose columns move
/// through a staging block of `STAGE·n/2` reals, one 64-byte line of an
/// `f64` row per group. Reading one series at a time straight from a wide
/// matrix would touch a fresh line per sample, `n_series·8` bytes apart —
/// at the paper's 256 series a power-of-two stride that keeps every access
/// of a series in two sets of the L1. The lanes path's remainder group,
/// narrower than a lane group, stages too.
const STAGE: usize = 8;

/// One worker's buffers of the padded entry points: the plan scratch
/// (which holds the planar buffers on the lanes path), and the staging
/// block, checked out by the worker's first group that stages.
type Buffers<'a, T> = (Checkout<'a, Vec<Complex<T>>>, Option<Checkout<'a, Vec<f64>>>);

/// The lanes kernels' token (with the group width) and the half plan's
/// engine, when a padded batch runs its full groups in the lanes.
type LanePath<'a, T> = Option<(Lanes, &'a IterativeFft<T>)>;

/// Longest real transform (`n = 2·N_t`) the padded entry points run on the
/// series-in-lanes path; longer ones run per series. `bench_fft`'s
/// batched rows, per-series ÷ lanes ns per series (`bench/baseline.json`:
/// for each row the median of three full runs, one pool thread, a shared
/// 2-vCPU x86-64 VM with AVX2 and 2 MiB of L2; forward / inverse):
///
/// | `n`  | f64, 16 series | f64, 256    | f32, 16     | f32, 256    |
/// |------|----------------|-------------|-------------|-------------|
/// | 128  | 2.57 / 2.08    | 2.28 / 1.67 | 3.70 / 2.83 | 3.27 / 2.42 |
/// | 512  | 1.79 / 1.74    | 1.81 / 1.38 | 2.68 / 2.34 | 2.33 / 1.95 |
/// | 2048 | 1.42 / 1.34    | 1.08 / 1.08 | 1.73 / 1.41 | 1.91 / 1.59 |
///
/// and, from one `-quick` run on the same host with the limit removed:
///
/// | `n`    | f64, 4 series | f64, 16     | f64, 64     | f32, 16     | f32, 64     |
/// |--------|---------------|-------------|-------------|-------------|-------------|
/// | 8192   | 1.63 / 2.16   | 1.75 / 1.76 | 1.52 / 1.48 | 2.15 / 2.09 | 1.95 / 1.74 |
/// | 16 384 | 1.43 / 1.63   | 1.11 / 1.07 | 1.28 / 1.19 | 1.37 / 1.31 | 1.55 / 1.46 |
/// | 32 768 | 0.96 / 0.98   | 1.13 / 0.97 | 1.26 / 1.08 | 1.33 / 1.19 | 1.66 / 1.37 |
///
/// The limit is the longest length at which every row leads. At 32 768
/// the two planar buffers of an `f64` lane group (`2·64·(n/2 + 1)` bytes,
/// 2.1 MB per worker) outgrow the L2, and `f64` rows lose. A lane group is
/// one task of the parallel-for, so `longseries_dd`'s 4 series of 8192
/// points run as one task per side where one-series groups would fork
/// four; the end-to-end metrics run at one pool thread, and at two the
/// single group still beat the four tasks (ROADMAP 4(e)), so the limit
/// follows the kernels, not the task count.
const LANES_MAX_LEN: usize = 16_384;

/// The series-in-lanes path's planar buffers within one worker's plan
/// scratch: two of `e` complex slots, the first starting on a 64-byte
/// line so every planar element (64 bytes in either tier) is one line.
fn planar<T: Real>(scratch: &mut [Complex<T>], e: usize) -> (&mut [Complex<T>], &mut [Complex<T>]) {
    let off = scratch.as_ptr().align_offset(64).min(scratch.len() - 2 * e);
    let (a, b) = scratch[off..].split_at_mut(e);
    (a, &mut b[..e])
}

/// Complex slots one worker's plan scratch needs on the series-in-lanes
/// path: the two planar buffers of [`planar`] and a line of alignment.
fn planar_scratch_len<T: Real>(e: usize) -> usize {
    2 * e + 64 / core::mem::size_of::<Complex<T>>()
}

/// The series-in-lanes path of a complex plan, when it takes it: `f32` /
/// `f64` radix-2/4 schedules of up to `LANES_MAX_LEN / 2` points — a
/// real transform of up to [`LANES_MAX_LEN`] through its half plan, and
/// complex transforms whose planar buffers are no larger.
fn lane_path<T: Real>(plan: &FftPlan<T>) -> LanePath<'_, T> {
    let lanes = Lanes::of::<T>()?;
    let engine = plan.iterative().filter(|_| 2 * plan.len() <= LANES_MAX_LEN)?;
    engine.stages().all(|st| st.radix == 2 || st.radix == 4).then_some((lanes, engine))
}

/// Every forward stage of `engine` for a lane group: the first reads
/// `src`, the rest ping-pong through the first `e` slots of the planar
/// buffers `a` and `b`. Returns the transforms (planar) and the other
/// buffer, whole.
fn lanes_forward<'b, T: Real, S: Source<T> + ?Sized>(
    lanes: Lanes,
    engine: &IterativeFft<T>,
    src: &S,
    (a, b): (&'b mut [Complex<T>], &'b mut [Complex<T>]),
    e: usize,
) -> (&'b [Complex<T>], &'b mut [Complex<T>]) {
    let mut stages = engine.stages();
    let first = stages.next().expect("a schedule has a stage");
    let (r, m, s, tw) = (first.radix, first.m, first.s, &first.twiddles);
    simd::lanes_stage(lanes, src, &mut a[..e], r, m, s, tw, false);
    let mut in_a = true;
    for st in stages {
        let (src, dst) = if in_a { (&a[..e], &mut b[..e]) } else { (&b[..e], &mut a[..e]) };
        simd::lanes_stage(lanes, src, dst, st.radix, st.m, st.s, &st.twiddles, false);
        in_a = !in_a;
    }
    if in_a {
        (&a[..e], b)
    } else {
        (&b[..e], a)
    }
}

/// Every inverse stage of `engine` for a lane group whose input is the
/// planar `x`: the last writes `dst`, the others ping-pong through `x` and
/// the planar `y`, which both clobber.
fn lanes_inverse<'b, T: Real, D: Sink<T> + ?Sized>(
    lanes: Lanes,
    engine: &IterativeFft<T>,
    mut x: &'b mut [Complex<T>],
    mut y: &'b mut [Complex<T>],
    dst: &mut D,
) {
    let last = engine.stages().count() - 1;
    for st in engine.stages().take(last) {
        simd::lanes_stage(lanes, &*x, &mut *y, st.radix, st.m, st.s, &st.twiddles, true);
        std::mem::swap(&mut x, &mut y);
    }
    let st = engine.stages().nth(last).expect("a schedule has a stage");
    simd::lanes_stage(lanes, &*x, dst, st.radix, st.m, st.s, &st.twiddles, true);
}

/// An output matrix shared by the groups of series whose columns
/// interleave in it.
struct Interleaved<E>(*mut E);
// SAFETY: each group writes only its own columns (see the callers).
unsafe impl<E: Send> Sync for Interleaved<E> {}
impl<E> Interleaved<E> {
    /// The matrix (a method, so closures capture the `Sync` wrapper
    /// rather than the raw pointer).
    fn get(&self) -> *mut E {
        self.0
    }
}

/// The staging copy of a batch whose columns share lane groups: `cols`
/// TOSI matrices of `n_series` series of `h` samples, back to back, laid
/// side by side as one TOSI matrix of `cols·n_series` series.
/// `copy(wide, col)` is called with the index of every element in the
/// wide matrix and in the column matrices. One series at a time, so the
/// inner loop is a whole series: a row of a column is as short as two
/// samples.
fn side_by_side(n_series: usize, h: usize, cols: usize, mut copy: impl FnMut(usize, usize)) {
    let width = cols * n_series;
    for c in 0..cols {
        for s in 0..n_series {
            let (wide, col) = (c * n_series + s, c * h * n_series + s);
            (0..h).for_each(|t| copy(wide + t * width, col + t * n_series));
        }
    }
}

impl<T: Real> BatchedRealFft<T> {
    pub fn new(n: usize) -> Self {
        BatchedRealFft {
            plan: cache::real_plan::<T>(n),
            pool: ScratchPool::default(),
            stage: WorkspacePool::default(),
            lanes: true,
        }
    }

    /// This driver with the series-in-lanes path switched off: the padded
    /// entry points run every series on its own, as at the portable level.
    /// The reference `bench_fft` times the lanes path against and the
    /// tests compare it with, on bits.
    pub fn per_series(mut self) -> Self {
        self.lanes = false;
        self
    }

    /// Real signal length per batch item.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Complex bins per batch item (`n/2 + 1`).
    pub fn spectrum_len(&self) -> usize {
        self.plan.spectrum_len()
    }

    /// Access the underlying shared plan.
    pub fn plan(&self) -> &RealFftPlan<T> {
        &self.plan
    }

    /// The cache handle itself — clone it to share the plan elsewhere.
    pub fn plan_handle(&self) -> &RealPlanHandle<T> {
        &self.plan
    }

    /// Scratch vectors currently parked in this driver's pool: at most
    /// one per worker that ran a chunk of the last parallel batch.
    pub fn scratch_pooled(&self) -> usize {
        self.pool.pooled()
    }

    /// Batched forward R2C. `input.len() = batch·n`,
    /// `output.len() = batch·(n/2+1)`.
    pub fn forward_batch(&self, input: &[T], output: &mut [Complex<T>]) {
        let n = self.plan.len();
        let s = self.plan.spectrum_len();
        assert_eq!(input.len() % n, 0, "batched R2C input not a multiple of n");
        let batch = input.len() / n;
        assert_eq!(output.len(), batch * s, "batched R2C output length mismatch");
        let init = || scratch(&self.pool, self.plan.scratch_len());
        for_each_chunk_mut(input.len(), output, s, init, |scratch, (b, o)| {
            self.plan.forward(&input[b * n..][..n], o, scratch.ws())
        });
    }

    /// Batched inverse C2R. `spectrum.len() = batch·(n/2+1)`,
    /// `output.len() = batch·n`.
    pub fn inverse_batch(&self, spectrum: &[Complex<T>], output: &mut [T]) {
        let n = self.plan.len();
        let s = self.plan.spectrum_len();
        assert_eq!(spectrum.len() % s, 0, "batched C2R spectrum not a multiple of bins");
        let batch = spectrum.len() / s;
        assert_eq!(output.len(), batch * n, "batched C2R output length mismatch");
        let init = || scratch(&self.pool, self.plan.scratch_len());
        for_each_chunk_mut(output.len(), output, n, init, |scratch, (b, o)| {
            self.plan.inverse(&spectrum[b * s..][..s], o, scratch.ws())
        });
    }

    /// Batched forward R2C of `n_series` zero-padded series read in place
    /// from a time-outer/series-inner `f64` matrix — sample `t < n/2` of
    /// series `s` is `input[t·n_series + s]`, rounded through tier `pad` —
    /// into `output.len() = n_series·(n/2+1)` bins, series-major. See
    /// `RealFftPlan::forward_padded`: the pad and the cast happen in the
    /// first pass, and no embedding zero is stored or loaded.
    ///
    /// The batch runs in groups of consecutive series, one width per call:
    /// a lane group wide when short `f32` / `f64` power-of-two transforms
    /// take the series-in-lanes path, one series when there are at most
    /// `STAGE`, `STAGE` otherwise. A full lane group runs in the lanes, a
    /// single series in place through its plan, and any other group (a
    /// `STAGE` group, the lanes path's remainder) through a staging block.
    pub fn forward_padded(
        &self,
        input: &[f64],
        n_series: usize,
        pad: Precision,
        output: &mut [Complex<T>],
    ) {
        let (n, s) = (self.plan.len(), self.plan.spectrum_len());
        assert_eq!(input.len(), n_series * (n / 2), "batched padded R2C input length mismatch");
        assert_eq!(output.len(), n_series * s, "batched padded R2C output length mismatch");
        let (width, lanes) = self.groups(n_series);
        let init = || self.buffers(lanes);
        for_each_chunk_mut(n_series * n, output, width * s, init, |bufs, (k, out)| {
            let x = &input[k * width..];
            match lanes {
                Some((lanes, engine)) if out.len() == width * s => {
                    self.forward_lanes(lanes, engine, x, n_series, pad, out, bufs.0.ws())
                }
                _ if width == 1 => self.plan.forward_padded(x, n_series, pad, out, bufs.0.ws()),
                _ => self.forward_group(x, n_series, pad, out, bufs),
            }
        });
    }

    /// Batched inverse C2R (scaled by `1/n`) of `spectrum.len() =
    /// batch·(n/2+1)` bins that keeps samples `t < n/2` of each series,
    /// routed through tier `unpad`, in the time-outer/series-inner `f64`
    /// matrix `output[t·batch + s]` (`output.len() = batch·n/2`). See
    /// `RealFftPlan::inverse_unpadded`: the scale and the unpad happen
    /// in the last pass, which computes only the kept half. The groups,
    /// and how each runs, are those of [`Self::forward_padded`].
    pub fn inverse_unpadded(&self, spectrum: &[Complex<T>], unpad: Precision, output: &mut [f64]) {
        let (n, s) = (self.plan.len(), self.plan.spectrum_len());
        assert_eq!(spectrum.len() % s, 0, "batched C2R spectrum not a multiple of bins");
        let batch = spectrum.len() / s;
        assert_eq!(output.len(), batch * (n / 2), "batched unpadded C2R output length mismatch");
        let (width, lanes) = self.groups(batch);
        let out = Interleaved(output.as_mut_ptr());
        let init = || self.buffers(lanes);
        for_each_chunk(batch * n, spectrum, width * s, init, |bufs, (k, spectra)| {
            // SAFETY: `output` is exclusively borrowed for the whole call
            // and holds `batch·n/2` elements; group `k` writes only the
            // columns of its own series, `k·width..`, disjoint from every
            // other group's.
            unsafe {
                let column = out.get().add(k * width);
                match lanes {
                    Some((lanes, engine)) if spectra.len() == width * s => self.inverse_lanes(
                        lanes,
                        engine,
                        spectra,
                        unpad,
                        column,
                        batch,
                        bufs.0.ws(),
                    ),
                    _ if width == 1 => {
                        self.plan.inverse_unpadded_raw(spectra, column, batch, unpad, bufs.0.ws())
                    }
                    _ => self.inverse_group(spectra, unpad, column, batch, bufs),
                }
            }
        });
    }

    /// Batched forward R2C of rows zero-padded to `n`, read in place from
    /// the row-major `f64` matrix `input` of `head` columns (`1 ≤ head ≤
    /// n`): sample `t` of row `r` is `input[r·head + t]`, rounded through
    /// tier `pad` into `T` (as [`Self::forward_padded`] rounds), and
    /// samples `head..n` are zeros. Row `r`'s `n/2 + 1` bins land in
    /// `output[r·(n/2+1)..]`, as [`Self::forward_batch`] writes them, with
    /// the bits `forward_batch` gives the padded rows.
    ///
    /// The rows run in groups through one parallel-for: a lane group wide
    /// (4 `f64` or 8 `f32` rows) when short `f32` / `f64` power-of-two
    /// transforms take the series-in-lanes path — the first stage reads
    /// the group's rows through a transposing load, the embedding's zeros
    /// `+0` registers that are never loaded, and the unpack stores
    /// series-major — and one row otherwise. A row the lanes do not take
    /// (the remainder group, the portable level, the 16-bit tiers, other
    /// schedules) is rounded and zero-extended into scratch and
    /// transformed through the plan.
    pub fn forward_rows(
        &self,
        input: &[f64],
        head: usize,
        pad: Precision,
        output: &mut [Complex<T>],
    ) {
        let (n, s) = (self.plan.len(), self.plan.spectrum_len());
        assert!(
            (1..=n).contains(&head) && output.len() % s == 0,
            "batched row R2C: {} bins are not rows of {s}, or head {head} outside 1..={n}",
            output.len()
        );
        let rows = output.len() / s;
        assert_eq!(input.len(), rows * head, "batched row R2C input length mismatch");
        let lanes = self.lanes(rows);
        let width = lanes.map_or(1, |(l, _)| l.width());
        let init = || self.row_buffers(lanes);
        for_each_chunk_mut(rows * n, output, width * s, init, |scratch, (g, out)| {
            let x = &input[g * width * head..][..out.len() / s * head];
            match lanes {
                Some((lanes, engine)) if out.len() == width * s => {
                    let h = n / 2;
                    let buffers = planar(scratch.ws(), width * (h + 1));
                    let (z, bins) = with_real!(pad, P => {
                        let src = PaddedRows::<P>::rows(x, head, n);
                        lanes_forward(lanes, engine, &src, buffers, width * h)
                    });
                    simd::lanes_unpack(lanes, z, &self.plan.twiddles, bins, out);
                }
                _ => {
                    for (row, spectrum) in x.chunks_exact(head).zip(out.chunks_exact_mut(s)) {
                        let (signal, rest) = scratch.ws().split_at_mut(n / 2);
                        let (live, zeros) = as_flat_mut(signal).split_at_mut(head);
                        for (v, &x) in live.iter_mut().zip(row) {
                            *v = T::from_f64(pad.round_f64(x));
                        }
                        zeros.fill(T::ZERO);
                        self.plan.forward(as_flat_mut(signal), spectrum, rest);
                    }
                }
            }
        });
    }

    /// Batched inverse C2R (scaled by `1/n`) of `spectrum.len() =
    /// rows·(n/2+1)` bins, laid out as [`Self::forward_rows`] writes them,
    /// that keeps samples `t < keep` of each row (`1 ≤ keep ≤ n`), routed
    /// through tier `unpad`, in the row-major `f64` matrix `output[r·keep +
    /// t]`: [`Self::inverse_batch`] followed by that unpad, on bits. The
    /// groups are those of `forward_rows`: a lane group's spectra are
    /// repacked into planar buffers, every stage but the last runs planar,
    /// and the last scales and stores only the kept samples through a
    /// transposing store; a row the lanes do not take is transformed into
    /// scratch and its kept samples routed out from there.
    pub fn inverse_rows(
        &self,
        spectrum: &[Complex<T>],
        keep: usize,
        unpad: Precision,
        output: &mut [f64],
    ) {
        let (n, s) = (self.plan.len(), self.plan.spectrum_len());
        assert!(
            (1..=n).contains(&keep) && spectrum.len() % s == 0,
            "batched row C2R: {} bins are not rows of {s}, or keep {keep} outside 1..={n}",
            spectrum.len()
        );
        let rows = spectrum.len() / s;
        assert_eq!(output.len(), rows * keep, "batched row C2R output length mismatch");
        let lanes = self.lanes(rows);
        let width = lanes.map_or(1, |(l, _)| l.width());
        let init = || self.row_buffers(lanes);
        for_each_chunk_mut(rows * n, output, width * keep, init, |scratch, (g, out)| {
            let spectra = &spectrum[g * width * s..][..out.len() / keep * s];
            match lanes {
                Some((lanes, engine)) if out.len() == width * keep => {
                    let (h, e) = (n / 2, width * (n / 2));
                    let (a, b) = planar(scratch.ws(), width * (h + 1));
                    simd::lanes_repack(lanes, spectra, &self.plan.twiddles, a, &mut b[..e]);
                    let route = if T::PRECISION.widens_exactly_to(unpad) {
                        Precision::Double
                    } else {
                        unpad
                    };
                    let out = out.as_mut_ptr();
                    with_real!(route, Q => {
                        // SAFETY: `out` is the exclusively borrowed chunk of
                        // the group's `width` rows of `keep` samples.
                        let mut sink = unsafe { UnpaddedRows::<Q>::rows(out, keep, n, width) };
                        lanes_inverse(lanes, engine, &mut b[..e], &mut a[..e], &mut sink);
                    });
                }
                _ => {
                    for (spectrum, row) in spectra.chunks_exact(s).zip(out.chunks_exact_mut(keep)) {
                        let (signal, rest) = scratch.ws().split_at_mut(n / 2);
                        let signal = as_flat_mut(signal);
                        self.plan.inverse(spectrum, signal, rest);
                        for (o, v) in row.iter_mut().zip(&*signal) {
                            *o = unpad.round_f64(v.to_f64());
                        }
                    }
                }
            }
        });
    }

    /// One worker's scratch of the row entry points: the planar buffers on
    /// the lanes path, and a row of `n` reals beside the plan scratch for
    /// a row the lanes do not take.
    fn row_buffers(&self, lanes: LanePath<'_, T>) -> Checkout<'_, Vec<Complex<T>>> {
        let h = self.plan.len() / 2;
        let planar = lanes.map_or(0, |(l, _)| planar_scratch_len::<T>(l.width() * (h + 1)));
        scratch(&self.pool, planar.max(h + self.plan.scratch_len()))
    }

    /// [`Self::forward_padded`] of `cols` columns, each a TOSI matrix of
    /// `n_series` series, back to back in `input` (`cols·n_series·n/2`
    /// samples); the spectra of column `c` are series `c·n_series..` of
    /// `output` (`cols·n_series·(n/2+1)` bins). Every series gets the bits
    /// of its own transform.
    ///
    /// Where the series-in-lanes path would leave every column a
    /// remainder group — `n_series` not a multiple of the lane width, as
    /// on the two-series side of a short, wide operator — the columns run
    /// as one batch of `cols·n_series` series whose lane groups straddle
    /// columns: a staging copy lays the columns side by side as one TOSI
    /// matrix. Otherwise each column is one call.
    pub fn forward_padded_many(
        &self,
        input: &[f64],
        n_series: usize,
        cols: usize,
        pad: Precision,
        output: &mut [Complex<T>],
    ) {
        let (h, s) = (self.plan.len() / 2, self.plan.spectrum_len());
        assert_eq!(input.len(), cols * n_series * h, "batched padded R2C input length mismatch");
        assert_eq!(output.len(), cols * n_series * s, "batched padded R2C output length mismatch");
        if !self.straddles(n_series, cols) {
            let columns =
                input.chunks_exact(n_series * h).zip(output.chunks_exact_mut(n_series * s));
            columns.for_each(|(x, out)| self.forward_padded(x, n_series, pad, out));
            return;
        }
        let mut stage = self.stage.checkout();
        let stage = stage.ws();
        stage.resize(input.len(), 0.0);
        side_by_side(n_series, h, cols, |wide, col| stage[wide] = input[col]);
        self.forward_padded(stage, cols * n_series, pad, output);
    }

    /// [`Self::inverse_unpadded`] of `cols` columns of `spectrum.len() /
    /// (cols·(n/2+1))` series each into `cols` TOSI matrices back to back
    /// in `output`; the columns run as one batch through a staging copy
    /// exactly when [`Self::forward_padded_many`]'s do.
    pub fn inverse_unpadded_many(
        &self,
        spectrum: &[Complex<T>],
        cols: usize,
        unpad: Precision,
        output: &mut [f64],
    ) {
        let (h, s) = (self.plan.len() / 2, self.plan.spectrum_len());
        assert!(
            cols > 0 && spectrum.len() % (cols * s) == 0,
            "batched C2R spectrum not whole columns"
        );
        let n_series = spectrum.len() / (cols * s);
        assert_eq!(
            output.len(),
            cols * n_series * h,
            "batched unpadded C2R output length mismatch"
        );
        if !self.straddles(n_series, cols) {
            let columns =
                spectrum.chunks_exact(n_series * s).zip(output.chunks_exact_mut(n_series * h));
            columns.for_each(|(spec, out)| self.inverse_unpadded(spec, unpad, out));
            return;
        }
        let mut stage = self.stage.checkout();
        let stage = stage.ws();
        stage.resize(output.len(), 0.0);
        self.inverse_unpadded(spectrum, unpad, stage);
        side_by_side(n_series, h, cols, |wide, col| output[col] = stage[wide]);
    }

    /// Would the lane groups of `cols` columns of `n_series` series run as
    /// one batch straddle columns? Only then do the columns share a batch.
    fn straddles(&self, n_series: usize, cols: usize) -> bool {
        cols > 1 && self.lanes(cols * n_series).is_some_and(|(l, _)| n_series % l.width() != 0)
    }

    /// The group width of a padded batch of `n_series`, and the lanes
    /// path when its full groups run in the lanes.
    fn groups(&self, n_series: usize) -> (usize, LanePath<'_, T>) {
        match self.lanes(n_series) {
            Some(lanes) => (lanes.0.width(), Some(lanes)),
            None => (if n_series <= STAGE { 1 } else { STAGE }, None),
        }
    }

    /// The series-in-lanes path for a batch of `n_series`, when it takes
    /// it. It runs `f32` / `f64` radix-2/4 schedules up to
    /// [`LANES_MAX_LEN`], at least one whole group wide.
    fn lanes(&self, n_series: usize) -> LanePath<'_, T> {
        lane_path(&self.plan.half).filter(|(l, _)| self.lanes && n_series >= l.width())
    }

    /// One worker's buffers: plan scratch, with room for the planar
    /// buffers on the lanes path, and no staging block yet.
    fn buffers(&self, lanes: LanePath<'_, T>) -> Buffers<'_, T> {
        let h = self.plan.len() / 2;
        let planar = lanes.map_or(0, |(lanes, _)| planar_scratch_len::<T>(lanes.width() * (h + 1)));
        (scratch(&self.pool, planar.max(self.plan.scratch_len())), None)
    }

    /// The padded forward transforms of one lane group: the series whose
    /// samples are columns `0..width` of `input`'s rows (`n_series` apart)
    /// into their spectra `out`, through the planar buffers in `scratch`.
    /// The first stage reads the rows in place, every later stage runs
    /// planar, and the unpack stores series-major.
    #[allow(clippy::too_many_arguments)]
    fn forward_lanes(
        &self,
        lanes: Lanes,
        engine: &IterativeFft<T>,
        input: &[f64],
        n_series: usize,
        pad: Precision,
        out: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
    ) {
        let h = self.plan.len() / 2;
        let buffers = planar(scratch, lanes.width() * (h + 1));
        let (z, bins) = with_real!(pad, P => {
            let src = PaddedSeries::<P>::new(input, n_series, h);
            lanes_forward(lanes, engine, &src, buffers, lanes.width() * h)
        });
        simd::lanes_unpack(lanes, z, &self.plan.twiddles, bins, out);
    }

    /// The unpadded inverse transforms of one lane group: the spectra
    /// `spectra` into columns `0..width` of the `batch`-series output
    /// matrix at `out`, through the planar buffers in `scratch`. The
    /// repack loads series-major, every stage but the last runs planar,
    /// and the last stores the kept samples into the rows in place.
    ///
    /// # Safety
    ///
    /// `out.add(t·batch + c)` is valid for writes for every `t < n/2` and
    /// `c < lanes.width()`, and nothing else accesses those elements during
    /// the call.
    #[allow(clippy::too_many_arguments)]
    unsafe fn inverse_lanes(
        &self,
        lanes: Lanes,
        engine: &IterativeFft<T>,
        spectra: &[Complex<T>],
        unpad: Precision,
        out: *mut f64,
        batch: usize,
        scratch: &mut [Complex<T>],
    ) {
        let h = self.plan.len() / 2;
        let e = lanes.width() * h;
        let (a, b) = planar(scratch, lanes.width() * (h + 1));
        simd::lanes_repack(lanes, spectra, &self.plan.twiddles, a, &mut b[..e]);
        let route = if T::PRECISION.widens_exactly_to(unpad) { Precision::Double } else { unpad };
        with_real!(route, Q => {
            // SAFETY: the caller's contract: `lanes.width()` columns of `h`
            // rows, `batch` apart.
            let mut sink = UnpaddedSeries::<Q>::new(out, batch, h, lanes.width());
            lanes_inverse(lanes, engine, &mut b[..e], &mut a[..e], &mut sink);
        });
    }

    /// The padded forward of the group of series whose samples are the
    /// first columns of `input`'s rows (`n_series` apart) and whose
    /// spectra are `out`, read from those columns transposed into the
    /// staging block.
    fn forward_group<'a>(
        &'a self,
        input: &[f64],
        n_series: usize,
        pad: Precision,
        out: &mut [Complex<T>],
        (scratch, stage): &mut Buffers<'a, T>,
    ) {
        let (nt, s) = (self.plan.len() / 2, self.plan.spectrum_len());
        let spectra = out.chunks_exact_mut(s);
        let stage = stage.get_or_insert_with(|| self.stage.checkout()).ws();
        stage.resize(spectra.len() * nt, 0.0);
        transpose_map(input, n_series, stage, nt, nt, spectra.len(), |v| v);
        for (o, series) in spectra.zip(stage.chunks_exact(nt)) {
            self.plan.forward_padded(series, 1, pad, o, scratch.ws());
        }
    }

    /// The unpadded inverse of the group of series whose spectra are
    /// `spectra`, into the first columns of the `batch`-series output
    /// matrix at `out`, through the staging block, one row of the group at
    /// a time.
    ///
    /// # Safety
    ///
    /// `out.add(t·batch + c)` is valid for writes for every `t < n/2` and
    /// every series `c` of the group, and nothing else accesses those
    /// elements during the call.
    unsafe fn inverse_group<'a>(
        &'a self,
        spectra: &[Complex<T>],
        unpad: Precision,
        out: *mut f64,
        batch: usize,
        (scratch, stage): &mut Buffers<'a, T>,
    ) {
        let (nt, s) = (self.plan.len() / 2, self.plan.spectrum_len());
        let spectra = spectra.chunks_exact(s);
        let width = spectra.len();
        let stage = stage.get_or_insert_with(|| self.stage.checkout()).ws();
        stage.resize(width * nt, 0.0);
        for (spec, series) in spectra.zip(stage.chunks_exact_mut(nt)) {
            self.plan.inverse_unpadded(spec, series, 1, unpad, scratch.ws());
        }
        for t in 0..nt {
            let row = out.add(t * batch);
            for (k, series) in stage.chunks_exact(nt).enumerate() {
                *row.add(k) = series[t];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::simd::{active_level, level_supported, set_active_level, SimdLevel};
    use fftmatvec_numeric::SplitMix64;

    type C = Complex<f64>;

    #[test]
    fn batch_matches_single_transforms() {
        let n = 200;
        let batch = 17;
        let mut rng = SplitMix64::new(4);
        let data: Vec<C> = (0..n * batch)
            .map(|_| C::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        let bf = BatchedFft::<f64>::new(n);
        let got = bf.forward_batch_vec(&data);
        for b in 0..batch {
            let single = bf.plan().forward_vec(&data[b * n..(b + 1) * n]);
            for (g, s) in got[b * n..(b + 1) * n].iter().zip(&single) {
                assert!((*g - *s).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn inplace_batch_matches_out_of_place() {
        for (n, batch) in [(64usize, 9usize), (256, 128), (67, 5)] {
            let mut rng = SplitMix64::new(7);
            let data: Vec<C> = (0..n * batch)
                .map(|_| C::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
                .collect();
            let bf = BatchedFft::<f64>::new(n);
            let want = bf.forward_batch_vec(&data);
            let mut buf = data.clone();
            bf.process_batch_inplace(&mut buf, FftDirection::Forward);
            let err = buf.iter().zip(&want).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-13, "n={n} batch={batch} err={err}");
        }
    }

    #[test]
    fn batched_drivers_share_cached_plans() {
        let a = BatchedFft::<f64>::new(192);
        let b = BatchedFft::<f64>::new(192);
        assert!(std::sync::Arc::ptr_eq(&a.plan, &b.plan), "plan cache must dedupe");
    }

    #[test]
    fn scratch_arena_recycles_across_batches() {
        let n = 128;
        let bf = BatchedFft::<f64>::new(n);
        let data = vec![C::one(); n * 4];
        let _ = bf.forward_batch_vec(&data);
        let pooled_after_first = bf.scratch_pooled();
        assert!(pooled_after_first >= 1, "scratch must return to the pool");
        let _ = bf.forward_batch_vec(&data);
        assert_eq!(bf.scratch_pooled(), pooled_after_first, "second batch reuses pooled scratch");
        assert_eq!(bf.pool.peak_in_flight(), 1, "a serial batch holds one scratch vector");
    }

    #[test]
    fn pooled_scratch_is_sized_to_the_plan() {
        // 2048 runs a multi-pass schedule (scratch = n); the R2C driver
        // needs the packed half signal on top of its half plan's scratch.
        let n = 2048;
        let bf = BatchedFft::<f64>::new(n);
        let _ = bf.forward_batch_vec(&vec![C::one(); n * 3]);
        assert_eq!(bf.pool.peak_bytes(), bf.plan().scratch_len() * 16);
        assert!(bf.plan().scratch_len() > 0);
        {
            let mut guard = scratch(&bf.pool, bf.plan().scratch_len());
            assert_eq!(guard.ws().len(), bf.plan().scratch_len());
        }
        assert_eq!(bf.scratch_pooled(), 1, "a checkout reuses the pooled buffer, not a second one");
        let rf = BatchedRealFft::<f32>::new(64);
        let mut spec = vec![Complex::<f32>::zero(); 2 * rf.spectrum_len()];
        rf.forward_batch(&[1.0; 128], &mut spec);
        assert_eq!(rf.pool.peak_bytes(), rf.plan().scratch_len() * 8);
        assert!(rf.plan().scratch_len() > 0);
    }

    #[test]
    fn zero_length_scratch_is_free() {
        // 7 runs as a single stage, so its plan needs no scratch at all.
        let n = 7;
        let bf = BatchedFft::<f64>::new(n);
        assert_eq!(bf.plan().scratch_len(), 0);
        let _ = bf.forward_batch_vec(&vec![C::one(); n * 3]);
        assert_eq!(bf.pool.peak_bytes(), 0);
        let mut guard = scratch(&bf.pool, 0);
        assert!(guard.ws().is_empty());
    }

    #[test]
    fn large_batch_takes_parallel_path_and_roundtrips() {
        let n = 256;
        let batch = 128; // n·batch > PAR_THRESHOLD
        let mut rng = SplitMix64::new(5);
        let data: Vec<C> = (0..n * batch)
            .map(|_| C::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        let bf = BatchedFft::<f64>::new(n);
        let freq = bf.forward_batch_vec(&data);
        let back = bf.inverse_batch_vec(&freq);
        let err = back.iter().zip(&data).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-12);
    }

    #[test]
    fn real_batch_roundtrip() {
        let n = 2000; // 2·N_t for N_t = 1000
        let batch = 23;
        let mut rng = SplitMix64::new(6);
        let data: Vec<f64> = (0..n * batch).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let bf = BatchedRealFft::<f64>::new(n);
        let mut spec = vec![C::zero(); batch * bf.spectrum_len()];
        bf.forward_batch(&data, &mut spec);
        let mut back = vec![0.0; n * batch];
        bf.inverse_batch(&spec, &mut back);
        let err = back.iter().zip(&data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-12);
    }

    #[test]
    fn real_batch_matches_per_item() {
        let n = 64;
        let batch = 5;
        let mut rng = SplitMix64::new(8);
        let data: Vec<f64> = (0..n * batch).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let bf = BatchedRealFft::<f64>::new(n);
        let s = bf.spectrum_len();
        let mut spec = vec![C::zero(); batch * s];
        bf.forward_batch(&data, &mut spec);
        let mut scratch = vec![C::zero(); bf.plan().scratch_len()];
        for b in 0..batch {
            let mut single = vec![C::zero(); s];
            bf.plan().forward(&data[b * n..(b + 1) * n], &mut single, &mut scratch);
            for (g, want) in spec[b * s..(b + 1) * s].iter().zip(&single) {
                assert!((*g - *want).abs() < 1e-13);
            }
        }
    }

    /// The series-in-lanes path equals the per-series driver on bits, NaNs
    /// canonical: both tiers, every pad and unpad tier, lengths on both
    /// sides of the crossover (`longseries_dd`'s 8192 among them), whole
    /// groups and remainders, batches on both sides of the parallel
    /// threshold, on noise and on special values. From 8192 on, the widths
    /// are a full `f64` group, a remainder, and two groups and a remainder,
    /// and the data noise only: there every series of special values holds
    /// a NaN or an infinity, so every output is NaN. That keeps the test
    /// affordable in a debug build.
    #[test]
    fn lanes_path_equals_the_per_series_driver_on_bits() {
        fn check<T: Real>() {
            let canon = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
            let cbits = |v: &[Complex<T>]| {
                v.iter().map(|z| (canon(z.re.to_f64()), canon(z.im.to_f64()))).collect::<Vec<_>>()
            };
            let specials = [0.0, -0.0, 1.0, -0.5, 3e4, 1e-40, f64::INFINITY, f64::NAN];
            for n in [2usize, 4, 8, 16, 128, 2048, 8192, LANES_MAX_LEN, 2 * LANES_MAX_LEN] {
                let long = n >= 8192;
                let widths: &[usize] = if long { &[4, 5, 9] } else { &[1, 3, 4, 5, 8, 9, 17, 33] };
                for &n_series in widths {
                    let lanes = BatchedRealFft::<T>::new(n);
                    let reference = BatchedRealFft::<T>::new(n).per_series();
                    let taken = lanes.lanes(n_series).is_some();
                    if let Some(l) = Lanes::of::<T>() {
                        let expect = n_series >= l.width() && (4..=LANES_MAX_LEN).contains(&n);
                        assert_eq!(taken, expect, "n={n} ns={n_series}");
                    }
                    let (nt, s) = (n / 2, lanes.spectrum_len());
                    let mut rng = SplitMix64::new((n * 64 + n_series) as u64);
                    let noise: Vec<f64> =
                        (0..n_series * 2 * s).map(|_| rng.uniform(-1.0, 1.0)).collect();
                    let special: Vec<f64> =
                        (0..noise.len()).map(|_| specials[rng.next_u64() as usize % 8]).collect();
                    let data = if long { vec![noise] } else { vec![noise, special] };
                    for data in data {
                        let x = &data[..n_series * nt];
                        for pad in Precision::ALL {
                            let mut got = vec![Complex::<T>::zero(); n_series * s];
                            let mut want = got.clone();
                            lanes.forward_padded(x, n_series, pad, &mut got);
                            reference.forward_padded(x, n_series, pad, &mut want);
                            assert_eq!(cbits(&got), cbits(&want), "n={n} ns={n_series} pad {pad}");
                        }
                        let spec: Vec<Complex<T>> = data
                            .chunks_exact(2)
                            .map(|z| Complex::new(T::from_f64(z[0]), T::from_f64(z[1])))
                            .collect();
                        for unpad in Precision::ALL {
                            let mut got = vec![f64::NAN; n_series * nt];
                            let mut want = got.clone();
                            lanes.inverse_unpadded(&spec, unpad, &mut got);
                            reference.inverse_unpadded(&spec, unpad, &mut want);
                            let bits = |v: &[f64]| v.iter().map(|&x| canon(x)).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "n={n} ns={n_series} unpad {unpad}"
                            );
                        }
                    }
                }
            }
        }
        let _level = crate::LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        check::<f64>();
        check::<f32>();
    }

    /// A batch of columns equals each column transformed alone, on bits
    /// (NaNs canonical: lanes and per-series butterflies give NaNs
    /// different signs): both tiers, column widths that fill the lanes and
    /// ones that leave a remainder (so the columns share straddling lane
    /// groups), one column and several, lengths on both sides of the
    /// lanes crossover, noise and special values. Past the crossover no
    /// columns share lane groups, so there only the two shapes whose lane
    /// groups would straddle columns below it run, on noise, which keeps
    /// the test affordable in a debug build.
    #[test]
    fn column_batches_equal_each_column_alone_on_bits() {
        fn check<T: Real>() {
            let canon = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
            let specials = [0.0, -0.0, 1.0, -0.5, 3e4, 1e-40, f64::INFINITY, f64::NAN];
            for n in [8usize, 128, 2 * LANES_MAX_LEN] {
                let bf = BatchedRealFft::<T>::new(n);
                let (h, s) = (n / 2, bf.spectrum_len());
                let past = n > LANES_MAX_LEN;
                let shapes: &[(usize, usize)] = if past {
                    &[(2, 8), (3, 5)]
                } else {
                    &[(2, 1), (2, 8), (3, 5), (8, 3), (19, 4), (1, 7)]
                };
                for &(n_series, cols) in shapes {
                    let mut rng = SplitMix64::new((n * 64 + n_series * 8 + cols) as u64);
                    let len = cols * n_series * h;
                    let noise: Vec<f64> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
                    let special: Vec<f64> =
                        (0..len).map(|_| specials[rng.next_u64() as usize % 8]).collect();
                    let data = if past { vec![noise] } else { vec![noise, special] };
                    for x in data {
                        let what = format!("n={n} series={n_series} cols={cols}");
                        let mut many = vec![Complex::<T>::zero(); cols * n_series * s];
                        bf.forward_padded_many(&x, n_series, cols, Precision::Single, &mut many);
                        let mut alone = many.clone();
                        let columns =
                            x.chunks_exact(n_series * h).zip(alone.chunks_exact_mut(n_series * s));
                        columns.for_each(|(x, o)| {
                            bf.forward_padded(x, n_series, Precision::Single, o)
                        });
                        let cbits = |v: &[Complex<T>]| {
                            v.iter()
                                .map(|z| (canon(z.re.to_f64()), canon(z.im.to_f64())))
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(cbits(&many), cbits(&alone), "{what}: forward");

                        let mut many_t = vec![f64::NAN; len];
                        bf.inverse_unpadded_many(&many, cols, Precision::Half, &mut many_t);
                        let mut alone_t = many_t.clone();
                        let columns = many
                            .chunks_exact(n_series * s)
                            .zip(alone_t.chunks_exact_mut(n_series * h));
                        columns.for_each(|(spec, o)| bf.inverse_unpadded(spec, Precision::Half, o));
                        let bits = |v: &[f64]| v.iter().map(|&x| canon(x)).collect::<Vec<_>>();
                        assert_eq!(bits(&many_t), bits(&alone_t), "{what}: inverse");
                    }
                }
            }
        }
        let _level = crate::LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        check::<f64>();
        check::<f32>();
    }

    /// The column entry points equal each column transformed on its own
    /// (gathered, zero-extended, `process_inplace`, its kept rows stored)
    /// on bits, NaNs canonical: both lane tiers and a 16-bit one, lengths
    /// from one stage to past the lanes crossover, widths with and without
    /// a remainder group, heads from one row to all, spectra packed and
    /// spread out, noise and special values. Nothing between the spectra
    /// or past the kept rows is written, and the lanes take exactly the
    /// power-of-two `f32` / `f64` batches at least one group wide. From
    /// 4096 points on only one width, head and stride run, on noise, and
    /// the 16-bit tier not at all, which keeps the test affordable in a
    /// debug build.
    #[test]
    fn column_batches_keep_each_series_bits() {
        fn check<T: Real>() {
            let canon = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
            let cbits = |v: &[Complex<T>]| {
                v.iter().map(|z| (canon(z.re.to_f64()), canon(z.im.to_f64()))).collect::<Vec<_>>()
            };
            let specials = [0.0, -0.0, 1.0, -0.5, 3e4, 1e-40, f64::INFINITY, f64::NAN];
            for n in [1usize, 2, 4, 8, 12, 128, LANES_MAX_LEN / 2, LANES_MAX_LEN] {
                let long = n >= 4096;
                if long && T::BYTES < 4 {
                    continue;
                }
                let bf = BatchedFft::<T>::new(n);
                let widths: &[usize] = if long { &[9] } else { &[1, 3, 4, 8, 9, 17] };
                for &n_series in widths {
                    let lanes = Lanes::of::<T>().filter(|l| n_series >= l.width());
                    let pow2 = n.is_power_of_two() && (2..=LANES_MAX_LEN / 2).contains(&n);
                    let expect = lanes.is_some() && pow2;
                    assert_eq!(bf.groups(n_series).1.is_some(), expect, "n={n} ns={n_series}");
                    let heads =
                        if long { vec![n / 2] } else { vec![1, n.div_ceil(2), n / 2 + 1, n] };
                    let strides: &[_] =
                        if long { &[(n + 3, false)] } else { &[(n, false), (n + 3, true)] };
                    for head in heads.into_iter().filter(|&h| h <= n) {
                        for &(ld, special) in strides {
                            let what = format!("n={n} ns={n_series} head={head} ld={ld}");
                            let mut rng = SplitMix64::new((n * 64 + n_series * 8 + head) as u64);
                            let mut value = || {
                                let x = rng.uniform(-1.0, 1.0);
                                T::from_f64(if special {
                                    specials[rng.next_u64() as usize % 8]
                                } else {
                                    x
                                })
                            };
                            let x: Vec<Complex<T>> = (0..head * n_series)
                                .map(|_| Complex::new(value(), value()))
                                .collect();
                            let span = (n_series - 1) * ld + n;
                            let nan = T::from_f64(f64::NAN);
                            let mut got = vec![Complex::new(nan, nan); span];
                            bf.forward_columns(&x, n_series, &mut got, ld);
                            let mut want = vec![Complex::new(nan, nan); span];
                            let mut scratch = vec![Complex::zero(); bf.plan().scratch_len()];
                            for k in 0..n_series {
                                let series = &mut want[k * ld..][..n];
                                series.fill(Complex::zero());
                                (0..head).for_each(|t| series[t] = x[t * n_series + k]);
                                bf.plan().process_inplace(
                                    series,
                                    &mut scratch,
                                    FftDirection::Forward,
                                );
                            }
                            assert_eq!(cbits(&got), cbits(&want), "{what}: forward");

                            let mut spec = got;
                            let mut out = vec![Complex::new(nan, nan); head * n_series];
                            let mut want = out.clone();
                            for k in 0..n_series {
                                let mut series = spec[k * ld..][..n].to_vec();
                                bf.plan().process_inplace(
                                    &mut series,
                                    &mut scratch,
                                    FftDirection::Inverse,
                                );
                                (0..head).for_each(|t| want[t * n_series + k] = series[t]);
                            }
                            bf.inverse_columns(&mut spec, ld, &mut out, n_series);
                            assert_eq!(cbits(&out), cbits(&want), "{what}: inverse");
                        }
                    }
                }
            }
        }
        let _level = crate::LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        check::<f64>();
        check::<f32>();
        check::<fftmatvec_numeric::f16>();
    }

    /// The row entry points equal the old embed (each row's samples
    /// rounded through the pad tier, zero-extended to `n`) through
    /// `forward_batch`, and `inverse_batch` with each row's kept samples
    /// routed through the unpad tier (the old extract), on bits: `f64`,
    /// `f32` and `f16` at the portable and the AVX2 level, 1 to 65 rows
    /// (whole lane groups and remainders in both widths) and 130 (past the
    /// parallel threshold at `n = 128`), heads and keeps of one sample, an
    /// odd count, half, one past half and the whole length, pad and unpad
    /// tiers unlike the compute tier, power-of-two lengths (the lanes) and
    /// 70 (an odd-radix half plan). Outputs start NaN-poisoned, the lanes
    /// take exactly the power-of-two `f32` / `f64` batches at least one
    /// group wide, and nothing past the kept rows is written.
    #[test]
    fn row_batches_keep_the_bits_of_embed_forward_batch_and_extract() {
        fn check<T: Real>() {
            let cbits = |v: &[Complex<T>]| {
                v.iter()
                    .map(|z| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits()))
                    .collect::<Vec<_>>()
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let nan = T::from_f64(f64::NAN);
            for n in [8usize, 64, 128, 70] {
                let bf = BatchedRealFft::<T>::new(n);
                let s = bf.spectrum_len();
                for rows in [1usize, 3, 4, 8, 13, 64, 65, 130] {
                    let lanes = Lanes::of::<T>().filter(|l| rows >= l.width());
                    let expect = lanes.is_some() && n.is_power_of_two();
                    assert_eq!(bf.lanes(rows).is_some(), expect, "n={n} rows={rows}");
                    for (i, head) in [1, (n / 3) | 1, n / 2, n / 2 + 1, n].into_iter().enumerate() {
                        let (pad, unpad) = (Precision::ALL[(i + rows) % 4], Precision::ALL[i % 4]);
                        let what = format!("n={n} rows={rows} head={head} {pad}/{unpad}");
                        let mut rng = SplitMix64::new((n * 64 + rows * 8 + head) as u64);
                        let x: Vec<f64> =
                            (0..rows * head).map(|_| rng.uniform(-1.0, 1.0)).collect();
                        let mut got = vec![Complex::new(nan, nan); rows * s];
                        bf.forward_rows(&x, head, pad, &mut got);
                        let mut real = vec![T::ZERO; rows * n];
                        for (r, x) in real.chunks_exact_mut(n).zip(x.chunks_exact(head)) {
                            r.iter_mut()
                                .zip(x)
                                .for_each(|(v, &x)| *v = T::from_f64(pad.round_f64(x)));
                        }
                        let mut want = vec![Complex::new(nan, nan); rows * s];
                        bf.forward_batch(&real, &mut want);
                        assert_eq!(cbits(&got), cbits(&want), "{what}: forward");

                        let keep = head;
                        let spec: Vec<Complex<T>> = (0..rows * s)
                            .map(|_| {
                                let mut v = || T::from_f64(rng.uniform(-1.0, 1.0));
                                Complex::new(v(), v())
                            })
                            .collect();
                        let mut out = vec![f64::NAN; rows * keep + 3];
                        bf.inverse_rows(&spec, keep, unpad, &mut out[..rows * keep]);
                        assert!(out[rows * keep..].iter().all(|v| v.is_nan()), "{what}: slack");
                        bf.inverse_batch(&spec, &mut real);
                        let want: Vec<f64> = real
                            .chunks_exact(n)
                            .flat_map(|r| r[..keep].iter().map(|v| unpad.round_f64(v.to_f64())))
                            .collect();
                        assert_eq!(bits(&out[..rows * keep]), bits(&want), "{what}: inverse");
                    }
                }
            }
        }
        let _level = crate::LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = active_level();
        for level in [SimdLevel::Portable, SimdLevel::Avx2] {
            if level_supported(level) {
                set_active_level(level);
                check::<f64>();
                check::<f32>();
                check::<fftmatvec_numeric::f16>();
            }
        }
        set_active_level(prev);
    }

    /// A staging block is checked out only by a group that stages: a
    /// batch of full lane groups or of at most `STAGE` series takes none;
    /// a lanes batch with a remainder group does, and so does a wider
    /// batch the lanes path does not take (at the portable level that is
    /// every batch wider than `STAGE`), short or long. Both sides of the
    /// parallel threshold, forward and inverse. A second identical call
    /// parks no new buffer; on the pool with more than one thread, how
    /// many workers a call reaches varies, so there only the bound holds.
    #[test]
    fn the_staging_block_is_taken_only_by_a_group_that_stages() {
        fn check<T: Real>() {
            let threads = rayon::current_num_threads();
            let cases =
                [(128, 16), (128, 256), (128, 2), (8192, 4), (1000, 9), (8192, 9), (32768, 9)];
            for (n, n_series) in cases {
                let lanes = Lanes::of::<T>()
                    .map(|l| l.width())
                    .filter(|&w| n_series >= w && n <= LANES_MAX_LEN && n.is_power_of_two());
                // A lanes batch stages its remainder group, if it has one;
                // any other batch stages when it is wider than `STAGE`.
                let staged = lanes.map_or(n_series > STAGE, |w| n_series % w != 0);
                let serial = !crate::par::parallel(n_series * n) || threads == 1;
                let (nt, s) = (n / 2, n / 2 + 1);
                let x = vec![0.25; n_series * nt];
                let spec = vec![Complex::<T>::one(); n_series * s];
                for inverse in [false, true] {
                    let bf = BatchedRealFft::<T>::new(n);
                    let call = || {
                        if inverse {
                            bf.inverse_unpadded(&spec, Precision::Double, &mut x.clone());
                        } else {
                            let mut out = spec.clone();
                            bf.forward_padded(&x, n_series, Precision::Double, &mut out);
                        }
                    };
                    call();
                    let parked = (bf.pool.pooled(), bf.stage.pooled());
                    call();
                    let what = format!("n={n} series={n_series} inverse={inverse}");
                    assert_eq!(bf.stage.peak_in_flight() > 0, staged, "{what}: staging block");
                    assert!(bf.pool.peak_in_flight() <= threads, "{what}: one scratch per worker");
                    let now = (bf.pool.pooled(), bf.stage.pooled());
                    if serial {
                        assert_eq!(now, parked, "{what}: a second call parks no new buffer");
                    } else {
                        assert!(now.0 <= threads && now.1 <= threads, "{what}: {now:?} parked");
                    }
                }
            }
        }
        let _level = crate::LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        check::<f64>();
        check::<f32>();
    }

    #[test]
    #[should_panic(expected = "multiple of n")]
    fn ragged_batch_rejected() {
        let bf = BatchedFft::<f64>::new(8);
        let data = vec![C::zero(); 12];
        let mut out = vec![C::zero(); 12];
        bf.process_batch(&data, &mut out, FftDirection::Forward);
    }
}
