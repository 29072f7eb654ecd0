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

use fftmatvec_numeric::ndindex::transpose_map;
use fftmatvec_numeric::workspace::{Checkout, WorkspacePool};
use fftmatvec_numeric::{Complex, Precision, Real};
use rayon::prelude::*;

use crate::cache::{self, PlanHandle, RealPlanHandle};
use crate::plan::{FftDirection, FftPlan};
use crate::real::RealFftPlan;

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
}

/// Series per group of the padded entry points. A batch of at most this
/// many series is read and written in place, at its own stride; a wider
/// one runs in groups whose columns are moved through a staging block of
/// `STAGE·n/2` reals, one 64-byte line of an `f64` row per group. Reading
/// one series at a time straight from a wide matrix would touch a fresh
/// line per sample, `n_series·8` bytes apart — at the paper's 256 series a
/// power-of-two stride that keeps every access of a series in two sets
/// of the L1.
const STAGE: usize = 8;

/// One worker's buffers of the padded entry points.
type Buffers<'a, T> = (Checkout<'a, Vec<Complex<T>>>, Checkout<'a, Vec<f64>>);

impl<T: Real> BatchedRealFft<T> {
    pub fn new(n: usize) -> Self {
        BatchedRealFft {
            plan: cache::real_plan::<T>(n),
            pool: ScratchPool::default(),
            stage: WorkspacePool::default(),
        }
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
    /// first pass, and no embedding zero is stored or loaded. Up to
    /// `STAGE` series are read in place, one task per series above the
    /// parallel threshold; wider batches run in groups of `STAGE` through
    /// a staging block.
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
    /// in the last pass, which computes only the kept half. Up to `STAGE`
    /// series are written in place, one task per series above the
    /// parallel threshold; wider batches run in groups of `STAGE` through
    /// a staging block.
    pub fn inverse_unpadded(&self, spectrum: &[Complex<T>], unpad: Precision, output: &mut [f64]) {
        let (n, s) = (self.plan.len(), self.plan.spectrum_len());
        assert_eq!(spectrum.len() % s, 0, "batched C2R spectrum not a multiple of bins");
        let batch = spectrum.len() / s;
        assert_eq!(output.len(), batch * (n / 2), "batched unpadded C2R output length mismatch");
        /// The output matrix, shared by the series (or groups of series)
        /// whose columns interleave in it.
        struct Interleaved(*mut f64);
        // SAFETY: each task writes only its own columns (see below).
        unsafe impl Sync for Interleaved {}
        impl Interleaved {
            /// The matrix (a method, so closures capture the `Sync`
            /// wrapper rather than the raw pointer).
            fn get(&self) -> *mut f64 {
                self.0
            }
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

    #[test]
    #[should_panic(expected = "multiple of n")]
    fn ragged_batch_rejected() {
        let bf = BatchedFft::<f64>::new(8);
        let data = vec![C::zero(); 12];
        let mut out = vec![C::zero(); 12];
        bf.process_batch(&data, &mut out, FftDirection::Forward);
    }
}
