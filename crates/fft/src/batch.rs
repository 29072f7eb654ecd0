//! Batched FFT execution — the stand-in for `cufftPlanMany`.
//!
//! FFTMatvec's phase 2 transforms `N_m` independent time series at once
//! (phase 4: `N_d` series). The batched drivers here run every series
//! through one cached plan (see [`crate::cache`]) and draw per-worker
//! scratch vectors from a [`WorkspacePool`] instead of allocating per
//! call. Above a size threshold the batch dimension is split across the
//! rayon pool's work chunks; `for_each_init` builds one pool checkout
//! per executed chunk (real-rayon semantics: roughly one per
//! participating worker, never one shared guard for the whole batch), so
//! at most one scratch buffer per concurrently-running worker is live at
//! a time. Chunk boundaries depend only on the batch size — not the
//! thread count — and every transform writes a disjoint output slice, so
//! batched results are byte-identical at any `RAYON_NUM_THREADS`.
//!
//! The padded entry points of [`BatchedRealFft`] — the block-triangular
//! apply's FFT and IFFT phases — run short `f32` / `f64` power-of-two
//! transforms with the **series in the SIMD lanes**: each group of 4
//! (`f64`) or 8 (`f32`) consecutive series runs its transforms together,
//! one register per real or imaginary part of a value (see
//! `crate::simd`), read from and written to the TOSI matrix in place.
//! Lanes run across series only, so every series gets the bits of its
//! own per-series transform; remainders, other tiers and lengths, and
//! longer transforms run per series.

use fftmatvec_numeric::ndindex::transpose_map;
use fftmatvec_numeric::workspace::{Checkout, WorkspacePool};
use fftmatvec_numeric::{with_real, Complex, Precision, Real};
use rayon::prelude::*;

use crate::cache::{self, PlanHandle, RealPlanHandle};
use crate::iterative::IterativeFft;
use crate::padded::{PaddedSeries, UnpaddedSeries};
use crate::plan::{FftDirection, FftPlan};
use crate::real::RealFftPlan;
use crate::simd::{self, Lanes};

/// Work below this many complex elements stays serial; smaller batches
/// are dominated by thread-pool dispatch.
const PAR_THRESHOLD: usize = 1 << 14;

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
        if input.len() > PAR_THRESHOLD {
            input.par_chunks_exact(n).zip(output.par_chunks_exact_mut(n)).for_each_init(
                || scratch(&self.pool, self.plan.scratch_len()),
                |scratch, (i, o)| self.plan.process(i, o, scratch.ws(), dir),
            );
            return;
        }
        let mut scratch = scratch(&self.pool, self.plan.scratch_len());
        for (i, o) in input.chunks_exact(n).zip(output.chunks_exact_mut(n)) {
            self.plan.process(i, o, scratch.ws(), dir);
        }
    }

    /// In-place batched transform: each `data[b*n..][..n]` chunk is
    /// transformed in its own storage — the hot path when the caller owns
    /// the buffer and has no use for the untransformed data.
    pub fn process_batch_inplace(&self, data: &mut [Complex<T>], dir: FftDirection) {
        let n = self.plan.len();
        assert_eq!(data.len() % n, 0, "batched FFT length not a multiple of n");
        if data.len() > PAR_THRESHOLD {
            data.par_chunks_exact_mut(n).for_each_init(
                || scratch(&self.pool, self.plan.scratch_len()),
                |scratch, chunk| self.plan.process_inplace(chunk, scratch.ws(), dir),
            );
            return;
        }
        let mut scratch = scratch(&self.pool, self.plan.scratch_len());
        for chunk in data.chunks_exact_mut(n) {
            self.plan.process_inplace(chunk, scratch.ws(), dir);
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
    /// Per-worker staging blocks of the padded entry points.
    stage: WorkspacePool<Vec<f64>>,
    /// May the padded entry points take the series-in-lanes path?
    lanes: bool,
}

/// Series per group of the padded entry points' per-series driver (the
/// lanes path has its own groups, [`Lanes::width`]). A batch of at most
/// this many series is read and written in place, at its own stride; a
/// wider one runs in groups whose columns are moved through a staging
/// block of `STAGE·n/2` reals, one 64-byte line of an `f64` row per group.
/// Reading one series at a time straight from a wide matrix would touch a
/// fresh line per sample, `n_series·8` bytes apart — at the paper's 256
/// series a power-of-two stride that keeps every access of a series in
/// two sets of the L1. The per-series driver runs every batch the lanes
/// path does not take, and the lanes path's remainder group.
const STAGE: usize = 8;

/// One worker's buffers of the padded entry points.
type Buffers<'a, T> = (Checkout<'a, Vec<Complex<T>>>, Checkout<'a, Vec<f64>>);

/// Longest real transform (`n = 2·N_t`) the padded entry points run on the
/// series-in-lanes path; longer ones run per series. `bench_fft`'s
/// batched rows, per-series ÷ lanes ns per series (`bench/baseline.json`:
/// for each row the median of three full runs, one pool thread, a shared
/// 2-vCPU x86-64 VM with AVX2; forward / inverse):
///
/// | `n`  | f64, 16 series | f64, 256    | f32, 16     | f32, 256    |
/// |------|----------------|-------------|-------------|-------------|
/// | 128  | 2.57 / 2.08    | 2.28 / 1.67 | 3.70 / 2.83 | 3.27 / 2.42 |
/// | 512  | 1.79 / 1.74    | 1.81 / 1.38 | 2.68 / 2.34 | 2.33 / 1.95 |
/// | 2048 | 1.42 / 1.34    | 1.08 / 1.08 | 1.73 / 1.41 | 1.91 / 1.59 |
///
/// The lanes path leads at every length in the table (and, in a scratch
/// build with the limit raised, at 8192 too), so the limit is not where
/// it stops winning. It is where the f64 256-series rows are down to
/// 1.08, the planar buffers reach 131 KB per worker (`2·64·(n/2 + 1)`
/// bytes), and the next length is `longseries_dd`'s: 4 series of 8192
/// points, one lane group and so one task, where the per-series driver
/// forks one task per series.
const LANES_MAX_LEN: usize = 2048;

/// The series-in-lanes path's planar buffers within one worker's plan
/// scratch: two of `width·(h + 1)` complex slots, the first starting on a
/// 64-byte line so every planar element (64 bytes in either tier) is one
/// line.
fn planar<T: Real>(
    scratch: &mut [Complex<T>],
    width: usize,
    h: usize,
) -> (&mut [Complex<T>], &mut [Complex<T>]) {
    let e = width * (h + 1);
    let off = scratch.as_ptr().align_offset(64).min(scratch.len() - 2 * e);
    let (a, b) = scratch[off..].split_at_mut(e);
    (a, &mut b[..e])
}

/// Complex slots one worker's plan scratch needs on the series-in-lanes
/// path: the two planar buffers of [`planar`] and a line of alignment.
fn planar_scratch_len<T: Real>(width: usize, h: usize) -> usize {
    2 * width * (h + 1) + 64 / core::mem::size_of::<Complex<T>>()
}

/// The output matrix of the unpadded inverse, shared by the series (or
/// groups of series) whose columns interleave in it.
struct Interleaved(*mut f64);
// SAFETY: each task writes only its own columns (see the callers).
unsafe impl Sync for Interleaved {}
impl Interleaved {
    /// The matrix (a method, so closures capture the `Sync` wrapper
    /// rather than the raw pointer).
    fn get(&self) -> *mut f64 {
        self.0
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
        if input.len() > PAR_THRESHOLD {
            input.par_chunks_exact(n).zip(output.par_chunks_exact_mut(s)).for_each_init(
                || scratch(&self.pool, self.plan.scratch_len()),
                |scratch, (i, o)| self.plan.forward(i, o, scratch.ws()),
            );
            return;
        }
        let mut scratch = scratch(&self.pool, self.plan.scratch_len());
        for (i, o) in input.chunks_exact(n).zip(output.chunks_exact_mut(s)) {
            self.plan.forward(i, o, scratch.ws());
        }
    }

    /// Batched forward R2C of `n_series` zero-padded series read in place
    /// from a time-outer/series-inner `f64` matrix — sample `t < n/2` of
    /// series `s` is `input[t·n_series + s]`, rounded through tier `pad` —
    /// into `output.len() = n_series·(n/2+1)` bins, series-major. See
    /// `RealFftPlan::forward_padded`: the pad and the cast happen in the
    /// first pass, and no embedding zero is stored or loaded. Short
    /// `f32` / `f64` power-of-two transforms run with the series in the
    /// SIMD lanes (`forward_padded_lanes`); otherwise up to `STAGE` series
    /// are read in place, one task per series above the parallel
    /// threshold, and wider batches run in groups of `STAGE` through a
    /// staging block.
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
        if let Some((lanes, engine)) = self.lanes(n_series) {
            self.forward_padded_lanes(lanes, engine, input, n_series, pad, output);
            return;
        }
        if n_series <= STAGE {
            // One group, read in place: one task per series, as the
            // unpadded driver.
            let series = |scratch: &mut Checkout<'_, Vec<Complex<T>>>,
                          (k, o): (usize, &mut [Complex<T>])| {
                self.plan.forward_padded(&input[k..], n_series, pad, o, scratch.ws())
            };
            if n_series * n > PAR_THRESHOLD {
                output
                    .par_chunks_mut(s)
                    .enumerate()
                    .for_each_init(|| scratch(&self.pool, self.plan.scratch_len()), series);
            } else {
                let mut scratch = scratch(&self.pool, self.plan.scratch_len());
                output.chunks_mut(s).enumerate().for_each(|ko| series(&mut scratch, ko));
            }
            return;
        }
        let group = |bufs: &mut Buffers<'_, T>, k: usize, out: &mut [Complex<T>]| {
            self.forward_group(input, n_series, k * STAGE, pad, out, bufs)
        };
        if n_series * n > PAR_THRESHOLD {
            output
                .par_chunks_mut(STAGE * s)
                .enumerate()
                .for_each_init(|| self.buffers(), |bufs, (k, out)| group(bufs, k, out));
            return;
        }
        let mut bufs = self.buffers();
        for (k, out) in output.chunks_mut(STAGE * s).enumerate() {
            group(&mut bufs, k, out);
        }
    }

    /// Batched inverse C2R (scaled by `1/n`) of `spectrum.len() =
    /// batch·(n/2+1)` bins that keeps samples `t < n/2` of each series,
    /// routed through tier `unpad`, in the time-outer/series-inner `f64`
    /// matrix `output[t·batch + s]` (`output.len() = batch·n/2`). See
    /// `RealFftPlan::inverse_unpadded`: the scale and the unpad happen
    /// in the last pass, which computes only the kept half. Which batches
    /// run with the series in the lanes, and how the rest run, is as in
    /// [`Self::forward_padded`].
    pub fn inverse_unpadded(&self, spectrum: &[Complex<T>], unpad: Precision, output: &mut [f64]) {
        let (n, s) = (self.plan.len(), self.plan.spectrum_len());
        assert_eq!(spectrum.len() % s, 0, "batched C2R spectrum not a multiple of bins");
        let batch = spectrum.len() / s;
        assert_eq!(output.len(), batch * (n / 2), "batched unpadded C2R output length mismatch");
        if let Some((lanes, engine)) = self.lanes(batch) {
            self.inverse_unpadded_lanes(lanes, engine, spectrum, unpad, output);
            return;
        }
        let out = Interleaved(output.as_mut_ptr());
        if batch <= STAGE {
            let series = |scratch: &mut Checkout<'_, Vec<Complex<T>>>,
                          (k, spec): (usize, &[Complex<T>])| {
                // SAFETY: `output` is exclusively borrowed for the whole
                // call and holds `batch·n/2` elements; series `k` writes
                // only column `k`, disjoint from every other series'.
                unsafe {
                    let column = out.get().add(k);
                    self.plan.inverse_unpadded_raw(spec, column, batch, unpad, scratch.ws())
                }
            };
            if batch * n > PAR_THRESHOLD {
                spectrum
                    .par_chunks(s)
                    .enumerate()
                    .for_each_init(|| scratch(&self.pool, self.plan.scratch_len()), series);
            } else {
                let mut scratch = scratch(&self.pool, self.plan.scratch_len());
                spectrum.chunks(s).enumerate().for_each(|ks| series(&mut scratch, ks));
            }
            return;
        }
        let group = |bufs: &mut Buffers<'_, T>, k: usize, spectra: &[Complex<T>]| {
            // SAFETY: `output` is exclusively borrowed for the whole call
            // and holds `batch·n/2` elements; group `k` writes only the
            // columns of its own series, `k·STAGE..`, disjoint from every
            // other group's.
            unsafe { self.inverse_group(spectra, unpad, out.get(), batch, k * STAGE, bufs) }
        };
        if batch * n > PAR_THRESHOLD {
            spectrum
                .par_chunks(STAGE * s)
                .enumerate()
                .for_each_init(|| self.buffers(), |bufs, (k, spectra)| group(bufs, k, spectra));
            return;
        }
        let mut bufs = self.buffers();
        for (k, spectra) in spectrum.chunks(STAGE * s).enumerate() {
            group(&mut bufs, k, spectra);
        }
    }

    /// One worker's buffers: plan scratch, and the staging block.
    fn buffers(&self) -> Buffers<'_, T> {
        (scratch(&self.pool, self.plan.scratch_len()), self.stage.checkout())
    }

    /// The series-in-lanes path for a batch of `n_series`, when it takes
    /// it: the kernels' token (with the group width) and the half plan's
    /// engine. It runs `f32` / `f64` radix-2/4 schedules up to
    /// [`LANES_MAX_LEN`], at least one whole group wide.
    fn lanes(&self, n_series: usize) -> Option<(Lanes, &IterativeFft<T>)> {
        let lanes = Lanes::of::<T>().filter(|l| self.lanes && n_series >= l.width())?;
        let engine = self.plan.half.iterative().filter(|_| self.plan.len() <= LANES_MAX_LEN)?;
        engine.stages().all(|st| st.radix == 2 || st.radix == 4).then_some((lanes, engine))
    }

    /// One worker's buffers on the lanes path: plan scratch holding the
    /// planar buffers (and enough for the remainder group's plan), and the
    /// remainder group's staging block.
    fn lane_buffers(&self, lanes: Lanes) -> Buffers<'_, T> {
        let len = planar_scratch_len::<T>(lanes.width(), self.plan.len() / 2);
        (scratch(&self.pool, len.max(self.plan.scratch_len())), self.stage.checkout())
    }

    /// [`Self::forward_padded`] on the lanes path: each group of `width`
    /// consecutive series runs its transforms in the lanes of one register
    /// per value, read in place from the TOSI input; the remainder of
    /// fewer series runs per series through the staging block. Groups go
    /// to the pool above the parallel threshold.
    fn forward_padded_lanes(
        &self,
        lanes: Lanes,
        engine: &IterativeFft<T>,
        input: &[f64],
        n_series: usize,
        pad: Precision,
        output: &mut [Complex<T>],
    ) {
        let (n, s, width) = (self.plan.len(), self.plan.spectrum_len(), lanes.width());
        let group = |bufs: &mut Buffers<'_, T>, k: usize, out: &mut [Complex<T>]| {
            if out.len() == width * s {
                let x = &input[k * width..];
                self.forward_lanes(lanes, engine, x, n_series, pad, out, bufs.0.ws());
            } else {
                self.forward_group(input, n_series, k * width, pad, out, bufs);
            }
        };
        if n_series * n > PAR_THRESHOLD {
            output
                .par_chunks_mut(width * s)
                .enumerate()
                .for_each_init(|| self.lane_buffers(lanes), |bufs, (k, out)| group(bufs, k, out));
            return;
        }
        let mut bufs = self.lane_buffers(lanes);
        for (k, out) in output.chunks_mut(width * s).enumerate() {
            group(&mut bufs, k, out);
        }
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
        let e = lanes.width() * h;
        let (a, b) = planar(scratch, lanes.width(), h);
        let mut stages = engine.stages();
        let first = stages.next().expect("a schedule has a stage");
        with_real!(pad, P => {
            let src = PaddedSeries::<P>::new(input, n_series, h);
            simd::lanes_first_padded(lanes, &src, &mut a[..e], first.radix, first.m, &first.twiddles);
        });
        let mut in_a = true;
        for st in stages {
            let (src, dst) = if in_a { (&a[..e], &mut b[..e]) } else { (&b[..e], &mut a[..e]) };
            simd::lanes_stage(lanes, src, dst, st.radix, st.m, st.s, &st.twiddles, false);
            in_a = !in_a;
        }
        let (z, bins) = if in_a { (&a[..e], b) } else { (&b[..e], a) };
        simd::lanes_unpack(lanes, z, &self.plan.twiddles, bins, out);
    }

    /// [`Self::inverse_unpadded`] on the lanes path; the counterpart of
    /// [`Self::forward_padded_lanes`].
    fn inverse_unpadded_lanes(
        &self,
        lanes: Lanes,
        engine: &IterativeFft<T>,
        spectrum: &[Complex<T>],
        unpad: Precision,
        output: &mut [f64],
    ) {
        let (n, s, width) = (self.plan.len(), self.plan.spectrum_len(), lanes.width());
        let batch = spectrum.len() / s;
        let out = Interleaved(output.as_mut_ptr());
        let group = |bufs: &mut Buffers<'_, T>, k: usize, spectra: &[Complex<T>]| {
            // SAFETY: `output` is exclusively borrowed for the whole call
            // and holds `batch·n/2` elements; group `k` writes only the
            // columns of its own series, `k·width..`, disjoint from every
            // other group's.
            unsafe {
                if spectra.len() == width * s {
                    let column = out.get().add(k * width);
                    self.inverse_lanes(lanes, engine, spectra, unpad, column, batch, bufs.0.ws());
                } else {
                    self.inverse_group(spectra, unpad, out.get(), batch, k * width, bufs);
                }
            }
        };
        if batch * n > PAR_THRESHOLD {
            spectrum
                .par_chunks(width * s)
                .enumerate()
                .for_each_init(|| self.lane_buffers(lanes), |bufs, (k, sp)| group(bufs, k, sp));
            return;
        }
        let mut bufs = self.lane_buffers(lanes);
        for (k, spectra) in spectrum.chunks(width * s).enumerate() {
            group(&mut bufs, k, spectra);
        }
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
        let (a, b) = planar(scratch, lanes.width(), h);
        simd::lanes_repack(lanes, spectra, &self.plan.twiddles, a, &mut b[..e]);
        let route = if T::PRECISION.widens_exactly_to(unpad) { Precision::Double } else { unpad };
        let last = engine.stages().count() - 1;
        let mut in_b = true;
        for (i, st) in engine.stages().enumerate() {
            let (src, dst) = if in_b { (&b[..e], &mut a[..e]) } else { (&a[..e], &mut b[..e]) };
            if i < last {
                simd::lanes_stage(lanes, src, dst, st.radix, st.m, st.s, &st.twiddles, true);
                in_b = !in_b;
                continue;
            }
            with_real!(route, Q => {
                // SAFETY: the caller's contract: `lanes.width()` columns of
                // `h` rows, `batch` apart.
                let mut sink = UnpaddedSeries::<Q>::new(out, batch, h);
                simd::lanes_last_unpadded(lanes, src, &mut sink, st.radix, st.s, &st.twiddles);
            });
        }
    }

    /// The padded forward of the group of series `s0..` whose spectra are
    /// `out`, read from the group's columns transposed into the staging
    /// block.
    fn forward_group(
        &self,
        input: &[f64],
        n_series: usize,
        s0: usize,
        pad: Precision,
        out: &mut [Complex<T>],
        (scratch, stage): &mut Buffers<'_, T>,
    ) {
        let (nt, s) = (self.plan.len() / 2, self.plan.spectrum_len());
        let spectra = out.chunks_exact_mut(s);
        let stage = stage.ws();
        stage.resize(spectra.len() * nt, 0.0);
        transpose_map(&input[s0..], n_series, stage, nt, nt, spectra.len(), |v| v);
        for (o, series) in spectra.zip(stage.chunks_exact(nt)) {
            self.plan.forward_padded(series, 1, pad, o, scratch.ws());
        }
    }

    /// The unpadded inverse of the group of series `s0..` whose spectra
    /// are `spectra`, into columns `s0..` of the `batch`-series output
    /// matrix at `out`, through the staging block, one row of the group at
    /// a time.
    ///
    /// # Safety
    ///
    /// `out` holds `batch·n/2` elements, and nothing else accesses the
    /// group's columns during the call.
    unsafe fn inverse_group(
        &self,
        spectra: &[Complex<T>],
        unpad: Precision,
        out: *mut f64,
        batch: usize,
        s0: usize,
        (scratch, stage): &mut Buffers<'_, T>,
    ) {
        let (nt, s) = (self.plan.len() / 2, self.plan.spectrum_len());
        let spectra = spectra.chunks_exact(s);
        let width = spectra.len();
        let stage = stage.ws();
        stage.resize(width * nt, 0.0);
        for (spec, series) in spectra.zip(stage.chunks_exact_mut(nt)) {
            self.plan.inverse_unpadded(spec, series, 1, unpad, scratch.ws());
        }
        for t in 0..nt {
            let row = out.add(t * batch + s0);
            for (k, series) in stage.chunks_exact(nt).enumerate() {
                *row.add(k) = series[t];
            }
        }
    }

    /// Batched inverse C2R. `spectrum.len() = batch·(n/2+1)`,
    /// `output.len() = batch·n`.
    pub fn inverse_batch(&self, spectrum: &[Complex<T>], output: &mut [T]) {
        let n = self.plan.len();
        let s = self.plan.spectrum_len();
        assert_eq!(spectrum.len() % s, 0, "batched C2R spectrum not a multiple of bins");
        let batch = spectrum.len() / s;
        assert_eq!(output.len(), batch * n, "batched C2R output length mismatch");
        if output.len() > PAR_THRESHOLD {
            spectrum.par_chunks_exact(s).zip(output.par_chunks_exact_mut(n)).for_each_init(
                || scratch(&self.pool, self.plan.scratch_len()),
                |scratch, (i, o)| self.plan.inverse(i, o, scratch.ws()),
            );
            return;
        }
        let mut scratch = scratch(&self.pool, self.plan.scratch_len());
        for (i, o) in spectrum.chunks_exact(s).zip(output.chunks_exact_mut(n)) {
            self.plan.inverse(i, o, scratch.ws());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    /// sides of the crossover, whole groups and remainders, batches on both
    /// sides of the parallel threshold, on noise and on special values.
    #[test]
    fn lanes_path_equals_the_per_series_driver_on_bits() {
        fn check<T: Real>() {
            let canon = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
            let cbits = |v: &[Complex<T>]| {
                v.iter().map(|z| (canon(z.re.to_f64()), canon(z.im.to_f64()))).collect::<Vec<_>>()
            };
            let specials = [0.0, -0.0, 1.0, -0.5, 3e4, 1e-40, f64::INFINITY, f64::NAN];
            for n in [2usize, 4, 8, 16, 128, LANES_MAX_LEN, 2 * LANES_MAX_LEN] {
                for n_series in [1usize, 3, 4, 5, 8, 9, 17, 33] {
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
                    for data in [noise, special] {
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

    #[test]
    #[should_panic(expected = "multiple of n")]
    fn ragged_batch_rejected() {
        let bf = BatchedFft::<f64>::new(8);
        let data = vec![C::zero(); 12];
        let mut out = vec![C::zero(); 12];
        bf.process_batch(&data, &mut out, FftDirection::Forward);
    }
}
