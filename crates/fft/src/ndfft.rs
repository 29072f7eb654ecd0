//! N-dimensional FFT drivers over nested cached 1-D plans.
//!
//! A separable N-d transform is a batched 1-D transform per axis. Both
//! drivers keep one batched engine per axis — in the fastmat two-level
//! naming, the innermost axis engine is `planBlock` and the outermost is
//! `planWhole` — and every per-axis plan is resolved through the
//! process-wide `(n, precision, kind)` [`crate::cache`], so nested plans
//! share twiddle tables with each other and with every 1-D call site in
//! the process (asserted via `Arc::ptr_eq` in tests).
//!
//! # [`NdFft`]: complex, whole grid
//!
//! Execution transforms the contiguous last axis in place, then rotates
//! that axis to the front ([`fftmatvec_numeric::ndindex`]) so the next
//! axis becomes contiguous; after `dims.len()` rounds the grid is back
//! in row-major layout with every axis transformed. The rotation
//! ping-pongs between the caller's grid and a caller-supplied partner
//! buffer of equal length, so the driver performs no allocation of its
//! own after the per-axis scratch pools warm up.
//!
//! # [`RealNdFft`]: real input, head-pruned, rotated spectrum
//!
//! The transform a circulant embedding wants. Its input is real and
//! non-zero only on a *head box* `[head₀, …, head_{L−1}]` — the caller's
//! `f64` values, row-major over the box — and its output is read only on
//! such a box, so:
//!
//! * the innermost axis is an R2C transform
//!   ([`BatchedRealFft::forward_rows`]) — `h = m_{L−1}/2 + 1` bins per row
//!   instead of `m_{L−1}` — that reads the caller's rows in place: the
//!   pad is its first pass (each sample rounded through the pad tier, the
//!   zeros `[head_{L−1}, m_{L−1})` of a row never stored; in the lanes
//!   they are `+0` registers). The inverse's C2R
//!   ([`BatchedRealFft::inverse_rows`]) is the unpad: its last pass stores
//!   only the kept samples of each row, scaled and routed through the
//!   unpad tier, into the caller's output. Neither direction has a real
//!   buffer of its own;
//! * every axis is transformed only over the rows that can be non-zero
//!   (forward) or that will be read (inverse). The buffer grows one axis
//!   at a time: `[head₀, …, head_{L−1}]` reals → R2C → for
//!   `l = L−2 … 0`, the column transforms of
//!   [`BatchedFft::forward_columns`] read each `[head_l, last]` block in
//!   place as a matrix of `last` columns and write every column's
//!   `m_l`-point spectrum `ld` apart in the next buffer, so axis `l`
//!   lands at the end and the old last axis at the front: the rotation
//!   is the column driver's loads and stores, and no axis is transposed
//!   on its own. The rows `[head_l, m_l)` of the embedding are never
//!   materialized: the transforms read them as `+0` (in the lanes, as
//!   registers that are never loaded), so dirty buffers are fine;
//! * the spectrum stays in the **rotated layout** the last axis pass
//!   leaves: axes in the order `(1, 2, …, L−1, 0)`, the `L−1` axis
//!   truncated to its `h` non-redundant bins — `[h, m₀]` for two levels,
//!   `[m₁, h, m₀]` for three, plain `[h]` for one
//!   ([`RealNdFft::rotated_dims`]). A pointwise multiply does not care
//!   about element order as long as the symbol is stored the same way,
//!   so the rotations that would restore row-major order (one per
//!   direction) are simply not run.
//!
//! The inverse mirrors the forward: per outer axis `l = 0 … L−2`,
//! [`BatchedFft::inverse_columns`] inverse-transforms the spectra of the
//! front axis and stores only the first `head_l` of the `m_l` rows of
//! each, scaled, as a column of a matrix whose rows make the last axis —
//! the rotation back is again the column driver's loads and stores — and
//! C2R on the surviving rows finishes.

use fftmatvec_numeric::ndindex::{rotate_last_to_front, total_len};
use fftmatvec_numeric::{Complex, Precision, Real};

use crate::batch::{BatchedFft, BatchedRealFft};
use crate::cache::{PlanHandle, RealPlanHandle};
use crate::plan::FftDirection;

/// Separable N-dimensional FFT over a dense row-major complex grid.
///
/// Forward is unscaled; inverse scales by `1/dims[i]` per axis, i.e.
/// `1/len()` overall, matching the 1-D convention, so
/// `process(Inverse)` ∘ `process(Forward)` is the identity up to
/// roundoff.
pub struct NdFft<T: Real> {
    dims: Vec<usize>,
    /// `axes[i]` transforms original axis `i` (length `dims[i]`).
    axes: Vec<BatchedFft<T>>,
}

impl<T: Real> NdFft<T> {
    /// Build the per-axis engines for a row-major grid of extents
    /// `dims`. Every extent must be non-zero (a zero-extent grid has no
    /// data to transform); panics otherwise, mirroring
    /// [`BatchedFft::new`] on length 0.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "NdFft needs at least one axis");
        assert!(dims.iter().all(|&d| d > 0), "NdFft axis extents must be non-zero");
        let axes = dims.iter().map(|&d| BatchedFft::new(d)).collect();
        NdFft { dims: dims.to_vec(), axes }
    }

    /// The grid extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Flat grid length (`∏ dims`).
    pub fn len(&self) -> usize {
        total_len(&self.dims)
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shared cache handle of axis `i`'s plan — clone to share, or
    /// `Arc::ptr_eq` against another handle to observe cache dedup.
    pub fn axis_plan(&self, i: usize) -> &PlanHandle<T> {
        self.axes[i].plan_handle()
    }

    /// Transform the grid in `data` along every axis. `partner` is the
    /// rotation ping-pong buffer; both must have length [`len`](Self::len).
    /// The result always lands back in `data` (buffers are swapped, not
    /// copied, when a round ends in the partner), and the layout is the
    /// original row-major order. Allocation-free after warm-up.
    pub fn process(
        &self,
        data: &mut Vec<Complex<T>>,
        partner: &mut Vec<Complex<T>>,
        dir: FftDirection,
    ) {
        let n = self.len();
        assert_eq!(data.len(), n, "NdFft grid length");
        assert_eq!(partner.len(), n, "NdFft partner length");
        let rank = self.dims.len();
        if rank == 1 {
            self.axes[0].process_batch_inplace(data, dir);
            return;
        }
        for step in 0..rank {
            // After `step` rotations the original axis `rank-1-step` is
            // the contiguous last axis.
            let axis = rank - 1 - step;
            let last = self.dims[axis];
            self.axes[axis].process_batch_inplace(data, dir);
            rotate_last_to_front(n / last, last, data, partner);
            std::mem::swap(data, partner);
        }
    }
}

/// Real-input, head-pruned separable N-d FFT with a rotated half
/// spectrum (see the [module docs](self)).
///
/// `dims` are the logical grid extents, outermost first; the last must
/// be even. Forward is unscaled, inverse scales by `1/∏ dims`, so
/// `inverse ∘ forward` is the identity on the head box (up to the pad and
/// unpad tiers' rounding). The caller owns every buffer; nothing is
/// allocated after the per-axis scratch pools warm up.
pub struct RealNdFft<T: Real> {
    dims: Vec<usize>,
    rotated: Vec<usize>,
    /// R2C / C2R engine of the innermost axis.
    inner: BatchedRealFft<T>,
    /// `outer[l]` transforms axis `l < L−1` (length `dims[l]`).
    outer: Vec<BatchedFft<T>>,
}

impl<T: Real> RealNdFft<T> {
    /// Build the per-axis engines for a logical grid of extents `dims`.
    /// Panics on an empty list, a zero extent or an odd last extent
    /// (mirroring [`BatchedRealFft::new`]).
    pub fn new(dims: &[usize]) -> Self {
        let (&last, lead) = dims.split_last().expect("RealNdFft needs at least one axis");
        assert!(dims.iter().all(|&d| d > 0), "RealNdFft axis extents must be non-zero");
        assert!(last % 2 == 0, "RealNdFft needs an even last extent, got {last}");
        let mut rotated = dims.to_vec();
        rotated[dims.len() - 1] = last / 2 + 1;
        rotated.rotate_left(1);
        RealNdFft {
            dims: dims.to_vec(),
            rotated,
            inner: BatchedRealFft::new(last),
            outer: lead.iter().map(|&d| BatchedFft::new(d)).collect(),
        }
    }

    /// The logical grid extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extents of the stored spectrum in its rotated layout: `dims` in
    /// the axis order `(1, …, L−1, 0)` with the `L−1` axis cut to
    /// `dims[L−1]/2 + 1` bins.
    pub fn rotated_dims(&self) -> &[usize] {
        &self.rotated
    }

    /// Complex elements of the spectrum: `∏ dims[..L−1] · (dims[L−1]/2 + 1)`.
    pub fn spectrum_len(&self) -> usize {
        total_len(&self.rotated)
    }

    /// Complex elements of the staging buffer a transform over the head
    /// box `head` (one extent per axis) needs: the largest intermediate
    /// that is not the spectrum itself (zero for one axis, where no
    /// rotation happens).
    pub fn stage_len(&self, head: &[usize]) -> usize {
        match head {
            [h0, _, ..] => self.spectrum_len() / self.dims[0] * h0,
            _ => 0,
        }
    }

    /// The shared cache handle of the innermost axis's real plan
    /// (`planBlock`); its half-length complex plan is shared through the
    /// cache as well.
    pub fn inner_plan(&self) -> &RealPlanHandle<T> {
        self.inner.plan_handle()
    }

    /// The shared cache handle of outer axis `i < L−1`'s complex plan
    /// (`axis_plan(0)` is `planWhole`).
    pub fn axis_plan(&self, i: usize) -> &PlanHandle<T> {
        self.outer[i].plan_handle()
    }

    fn check(&self, head: &[usize], real: usize, spec: usize, stage: usize) {
        assert_eq!(head.len(), self.dims.len(), "RealNdFft head: one extent per axis");
        assert!(
            head.iter().zip(&self.dims).all(|(&h, &d)| (1..=d).contains(&h)),
            "RealNdFft head {head:?} outside 1..=dims {:?}",
            self.dims
        );
        assert_eq!(real, total_len(head), "RealNdFft real values: one per head-box element");
        assert_eq!(spec, self.spectrum_len(), "RealNdFft spectrum length");
        assert!(stage >= self.stage_len(head), "RealNdFft stage buffer too short");
    }

    /// Forward transform of the real grid that is `input` on the head box
    /// and zero elsewhere: `input` holds the `∏ head` values of the box,
    /// row-major, each rounded through tier `pad` into `T` as the first
    /// pass reads it. The spectrum lands in `spec` (exactly
    /// [`spectrum_len`](Self::spectrum_len) long) in the rotated layout;
    /// `stage` (at least [`stage_len`](Self::stage_len)) is scratch.
    /// Neither complex buffer's prior contents are read.
    pub fn forward(
        &self,
        head: &[usize],
        input: &[f64],
        pad: Precision,
        spec: &mut [Complex<T>],
        stage: &mut [Complex<T>],
    ) {
        self.check(head, input.len(), spec.len(), stage.len());
        // One buffer swap per outer axis; start where the last one ends
        // in `spec`.
        let (mut cur, mut next) =
            if self.outer.len() % 2 == 0 { (spec, stage) } else { (stage, spec) };
        // `len` elements of `cur` are live; its contiguous last axis has
        // extent `last`.
        let (&row, outer) = head.split_last().expect("checked: one extent per axis");
        let mut last = self.inner.spectrum_len();
        let mut len = total_len(outer) * last;
        self.inner.forward_rows(input, row, pad, &mut cur[..len]);
        for l in (0..self.outer.len()).rev() {
            let (head_l, m_l) = (head[l], self.dims[l]);
            // cur is [lead, head_l, last]; next becomes [last, lead, m_l]:
            // block `p` of cur is a matrix of `last` columns whose spectra
            // land `ld` apart from `next[p·m_l]` on.
            let lead = len / (head_l * last);
            let ld = lead * m_l;
            let span = (last - 1) * ld + m_l;
            for p in 0..lead {
                let src = &cur[p * head_l * last..][..head_l * last];
                self.outer[l].forward_columns(src, last, &mut next[p * m_l..][..span], ld);
            }
            len = last * ld;
            std::mem::swap(&mut cur, &mut next);
            last = m_l;
        }
    }

    /// Inverse of [`forward`](Self::forward), computed only on the head
    /// box: consumes the rotated spectrum in `spec` (its contents are
    /// destroyed) and writes the `∏ head` values of the full inverse
    /// transform that lie inside the box into `output`, row-major, each
    /// routed through tier `unpad` as the last pass stores it. `stage` is
    /// scratch as in `forward`.
    pub fn inverse(
        &self,
        head: &[usize],
        spec: &mut [Complex<T>],
        stage: &mut [Complex<T>],
        unpad: Precision,
        output: &mut [f64],
    ) {
        self.check(head, output.len(), spec.len(), stage.len());
        let (mut cur, mut next) = (spec, stage);
        let mut len = self.spectrum_len();
        for l in 0..self.outer.len() {
            let (head_l, m_l) = (head[l], self.dims[l]);
            // cur is [front, lead, m_l]; next becomes [lead, head_l, front]:
            // the `front` spectra `ld` apart from `cur[p·m_l]` on keep
            // `head_l` rows each as block `p` of next, a matrix of `front`
            // columns.
            let front = self.rotated[l];
            let lead = len / (front * m_l);
            let ld = lead * m_l;
            let span = (front - 1) * ld + m_l;
            for p in 0..lead {
                let dst = &mut next[p * head_l * front..][..head_l * front];
                self.outer[l].inverse_columns(&mut cur[p * m_l..][..span], ld, dst, front);
            }
            len = lead * head_l * front;
            std::mem::swap(&mut cur, &mut next);
        }
        self.inner.inverse_rows(&cur[..len], head[self.outer.len()], unpad, output);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cache, dft};
    use fftmatvec_numeric::ndindex::{compose, decompose, strides_row_major, transpose_map};
    use fftmatvec_numeric::simd::{active_level, level_supported, set_active_level, SimdLevel};
    use fftmatvec_numeric::{bf16, f16, SplitMix64};
    use std::sync::Arc;

    type C64 = Complex<f64>;

    /// Reference: transform axis-by-axis with the naive DFT, gathering
    /// strided pencils explicitly.
    fn nd_dft_reference(dims: &[usize], data: &[C64], dir: FftDirection) -> Vec<C64> {
        let strides = strides_row_major(dims);
        let n = total_len(dims);
        let mut cur = data.to_vec();
        for (axis, &len) in dims.iter().enumerate() {
            let stride = strides[axis];
            let mut next = cur.clone();
            // Every pencil along `axis` starts at an offset whose axis
            // coordinate is zero.
            for base in 0..n {
                let coord = (base / stride) % len;
                if coord != 0 {
                    continue;
                }
                let pencil: Vec<C64> = (0..len).map(|k| cur[base + k * stride]).collect();
                let mut spec = vec![C64::new(0.0, 0.0); len];
                dft::naive_dft(&pencil, &mut spec, dir);
                for (k, v) in spec.into_iter().enumerate() {
                    next[base + k * stride] = v;
                }
            }
            cur = next;
        }
        cur
    }

    fn random_grid(dims: &[usize], seed: u64) -> Vec<C64> {
        let mut rng = SplitMix64::new(seed);
        (0..total_len(dims))
            .map(|_| C64::new(rng.next_f64() * 2.0 - 1.0, rng.next_f64() * 2.0 - 1.0))
            .collect()
    }

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let d = ((x.re - y.re).powi(2) + (x.im - y.im).powi(2)).sqrt();
            assert!(d < tol, "grid mismatch at {i}: {x:?} vs {y:?} (|Δ| = {d:.3e})");
        }
    }

    #[test]
    fn matches_reference_dft_2d_and_3d() {
        for dims in [vec![4usize, 6], vec![5, 3], vec![2, 3, 4]] {
            let grid = random_grid(&dims, 7 + dims.len() as u64);
            let nd = NdFft::<f64>::new(&dims);
            let mut a = grid.clone();
            let mut b = vec![C64::new(0.0, 0.0); a.len()];
            nd.process(&mut a, &mut b, FftDirection::Forward);
            let want = nd_dft_reference(&dims, &grid, FftDirection::Forward);
            assert_close(&a, &want, 1e-9);
        }
    }

    #[test]
    fn inverse_undoes_forward_with_unit_scaling() {
        let dims = [3usize, 8, 5];
        let grid = random_grid(&dims, 99);
        let nd = NdFft::<f64>::new(&dims);
        let mut a = grid.clone();
        let mut b = vec![C64::new(0.0, 0.0); a.len()];
        nd.process(&mut a, &mut b, FftDirection::Forward);
        nd.process(&mut a, &mut b, FftDirection::Inverse);
        assert_close(&a, &grid, 1e-10);
    }

    #[test]
    fn one_dimensional_grid_matches_plain_batched_fft() {
        let dims = [16usize];
        let grid = random_grid(&dims, 3);
        let nd = NdFft::<f64>::new(&dims);
        let mut a = grid.clone();
        let mut b = vec![C64::new(0.0, 0.0); a.len()];
        nd.process(&mut a, &mut b, FftDirection::Forward);
        let engine = BatchedFft::<f64>::new(16);
        let mut want = grid;
        engine.process_batch_inplace(&mut want, FftDirection::Forward);
        assert_close(&a, &want, 1e-12);
    }

    #[test]
    fn nested_plans_come_from_the_shared_cache() {
        // planBlock/planWhole style nesting: the inner axis of one grid,
        // the outer axis of another, and a direct 1-D driver must all
        // share one cached plan per (n, precision).
        let a = NdFft::<f64>::new(&[12, 30]);
        let b = NdFft::<f64>::new(&[30, 12]);
        let direct = BatchedFft::<f64>::new(30);
        assert!(Arc::ptr_eq(a.axis_plan(1), b.axis_plan(0)));
        assert!(Arc::ptr_eq(a.axis_plan(1), direct.plan_handle()));
        assert!(Arc::ptr_eq(a.axis_plan(0), b.axis_plan(1)));
        // Distinct lengths stay distinct.
        assert!(!Arc::ptr_eq(a.axis_plan(0), a.axis_plan(1)));
    }

    /// Random values on the head box `head`.
    fn random_box(head: &[usize], seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..total_len(head)).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    /// The spectrum and staging buffers of a transform over `head`,
    /// NaN-filled, the stage with slack past the length the engine asks
    /// for: anything a pass reads without having written it this call
    /// poisons the result.
    fn nan_buffers<T: Real>(
        engine: &RealNdFft<T>,
        head: &[usize],
    ) -> (Vec<Complex<T>>, Vec<Complex<T>>) {
        let nan = T::from_f64(f64::NAN);
        (
            vec![Complex::new(nan, nan); engine.spectrum_len()],
            vec![Complex::new(nan, nan); engine.stage_len(head) + 3],
        )
    }

    /// Run the inverse over `head` into a NaN-filled output with slack
    /// past the box, assert the slack is untouched, and return the box.
    fn inverse_into_nan<T: Real>(
        engine: &RealNdFft<T>,
        head: &[usize],
        spec: &mut [Complex<T>],
        unpad: Precision,
    ) -> Vec<f64> {
        let (_, mut stage) = nan_buffers(engine, head);
        let len = total_len(head);
        let mut out = vec![f64::NAN; len + 3];
        engine.inverse(head, spec, &mut stage, unpad, &mut out[..len]);
        assert!(out[len..].iter().all(|v| v.is_nan()), "{head:?}: slack untouched");
        out.truncate(len);
        out
    }

    /// The complex whole-grid transform of the head box's data
    /// zero-embedded into `dims`, read back in the real engine's rotated
    /// half layout.
    fn rotated_half_oracle(dims: &[usize], head: &[usize], data: &[f64]) -> Vec<C64> {
        let rank = dims.len();
        let strides = strides_row_major(dims);
        let mut grid = vec![C64::new(0.0, 0.0); total_len(dims)];
        let mut idx = vec![0usize; rank];
        for (flat, &v) in data.iter().enumerate() {
            decompose(flat, head, &mut idx);
            grid[compose(&idx, &strides)] = C64::new(v, 0.0);
        }
        let mut partner = grid.clone();
        NdFft::<f64>::new(dims).process(&mut grid, &mut partner, FftDirection::Forward);
        let engine = RealNdFft::<f64>::new(dims);
        let rotated = engine.rotated_dims();
        let mut want = vec![C64::new(0.0, 0.0); engine.spectrum_len()];
        let mut rot = vec![0usize; rank];
        for (flat, slot) in want.iter_mut().enumerate() {
            decompose(flat, rotated, &mut rot);
            // Rotated axis order is (1, …, L−1, 0).
            for (a, &k) in rot.iter().enumerate() {
                idx[(a + 1) % rank] = k;
            }
            *slot = grid[compose(&idx, &strides)];
        }
        want
    }

    fn rel_l2<T: Real>(got: &[Complex<T>], want: &[C64]) -> f64 {
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for (g, w) in got.iter().zip(want) {
            num += (g.re.to_f64() - w.re).powi(2) + (g.im.to_f64() - w.im).powi(2);
            den += w.re * w.re + w.im * w.im;
        }
        assert_eq!(got.len(), want.len());
        (num / den).sqrt()
    }

    /// Logical extents with every head box tried on them: powers of two
    /// mixed with 6, 10, 22, 26 and 70, one to four axes, outer heads
    /// full, ragged and degenerate, rows whole, cut short of, at and past
    /// half their length.
    const REAL_CASES: [(&[usize], &[&[usize]]); 9] = [
        (&[70], &[&[70], &[35], &[36]]),
        (&[64], &[&[64], &[1]]),
        (&[6, 10], &[&[6, 10], &[4, 10], &[1, 3]]),
        (&[22, 26], &[&[22, 26], &[13, 14]]),
        (&[128, 16], &[&[64, 16], &[64, 9]]),
        (&[4, 6, 10], &[&[4, 6, 10], &[2, 1, 10], &[1, 3, 5]]),
        (&[10, 22, 8], &[&[7, 5, 8]]),
        (&[2, 6, 4, 10], &[&[2, 6, 4, 10], &[1, 3, 2, 10], &[2, 1, 1, 7]]),
        (&[4, 2, 6, 70], &[&[3, 1, 4, 70]]),
    ];

    fn forward_tracks_the_complex_engine<T: Real>(tol: f64) {
        for (dims, heads) in REAL_CASES {
            let engine = RealNdFft::<T>::new(dims);
            for (case, &head) in heads.iter().enumerate() {
                let data = random_box(head, 31 + case as u64);
                let (mut spec, mut stage) = nan_buffers(&engine, head);
                engine.forward(head, &data, T::PRECISION, &mut spec, &mut stage);
                // The first pass rounds every value into `T`.
                let exact: Vec<f64> = data.iter().map(|&v| T::from_f64(v).to_f64()).collect();
                let err = rel_l2(&spec, &rotated_half_oracle(dims, head, &exact));
                assert!(err <= tol, "{dims:?} head {head:?}: rel err {err:.3e} over {tol:.0e}");
            }
        }
    }

    #[test]
    fn real_forward_is_the_rotated_half_of_the_complex_transform() {
        forward_tracks_the_complex_engine::<f64>(1e-12);
        forward_tracks_the_complex_engine::<f32>(2e-4);
        forward_tracks_the_complex_engine::<f16>(5e-2);
        forward_tracks_the_complex_engine::<bf16>(2e-1);
    }

    #[test]
    fn real_inverse_returns_any_head_box_of_the_original_grid() {
        for (dims, heads) in REAL_CASES {
            let engine = RealNdFft::<f64>::new(dims);
            let grid = random_box(dims, 77);
            let (mut spectrum, mut stage) = nan_buffers(&engine, dims);
            engine.forward(dims, &grid, Precision::Double, &mut spectrum, &mut stage);
            let strides = strides_row_major(dims);
            let mut idx = vec![0usize; dims.len()];
            for &head in heads {
                let got = inverse_into_nan(&engine, head, &mut spectrum.clone(), Precision::Double);
                for (flat, got) in got.iter().enumerate() {
                    decompose(flat, head, &mut idx);
                    let want = grid[compose(&idx, &strides)];
                    assert!(
                        (got - want).abs() < 1e-12,
                        "{dims:?} head {head:?} at {idx:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// The forward as it ran before the row and column drivers: the head
    /// box's rows rounded through `pad` into zero-extended rows of `T`
    /// (the embed), `forward_batch`, then per outer axis a transpose of
    /// each block into a zeroed buffer and every series transformed in
    /// place. Built from public pieces only, so it pins both drivers'
    /// bits.
    fn transposing_forward<T: Real>(
        e: &RealNdFft<T>,
        head: &[usize],
        input: &[f64],
        pad: Precision,
    ) -> Vec<Complex<T>> {
        let dims = e.dims();
        let ((&row, outer), m) = (head.split_last().unwrap(), dims[dims.len() - 1]);
        let mut real = vec![T::ZERO; total_len(outer) * m];
        for (r, x) in real.chunks_exact_mut(m).zip(input.chunks_exact(row)) {
            r.iter_mut().zip(x).for_each(|(v, &x)| *v = T::from_f64(pad.round_f64(x)));
        }
        let inner = BatchedRealFft::<T>::new(m);
        let mut last = inner.spectrum_len();
        let mut cur = vec![Complex::zero(); total_len(outer) * last];
        inner.forward_batch(&real, &mut cur);
        for l in (0..outer.len()).rev() {
            let (head_l, m_l) = (head[l], dims[l]);
            let lead = cur.len() / (head_l * last);
            let ld = lead * m_l;
            let mut next = vec![Complex::zero(); last * ld];
            for p in 0..lead {
                let (src, dst) = (&cur[p * head_l * last..], &mut next[p * m_l..]);
                transpose_map(src, last, dst, ld, head_l, last, |v| v);
            }
            BatchedFft::<T>::new(m_l).process_batch_inplace(&mut next, FftDirection::Forward);
            (cur, last) = (next, m_l);
        }
        cur
    }

    /// The inverse of [`transposing_forward`], as the inverse ran before:
    /// the transposes, `inverse_batch` into rows of `T`, and the kept
    /// values of each row routed through `unpad` (the extract).
    fn transposing_inverse<T: Real>(
        e: &RealNdFft<T>,
        head: &[usize],
        spec: &[Complex<T>],
        unpad: Precision,
    ) -> Vec<f64> {
        let dims = e.dims();
        let ((&keep, outer), m) = (head.split_last().unwrap(), dims[dims.len() - 1]);
        let mut cur = spec.to_vec();
        for (l, &head_l) in outer.iter().enumerate() {
            let (m_l, front) = (dims[l], e.rotated_dims()[l]);
            BatchedFft::<T>::new(m_l).process_batch_inplace(&mut cur, FftDirection::Inverse);
            let lead = cur.len() / (front * m_l);
            let mut next = vec![Complex::zero(); lead * head_l * front];
            for p in 0..lead {
                let (src, dst) = (&cur[p * m_l..], &mut next[p * head_l * front..]);
                transpose_map(src, lead * m_l, dst, front, front, head_l, |v| v);
            }
            cur = next;
        }
        let mut real = vec![T::ZERO; total_len(outer) * m];
        BatchedRealFft::<T>::new(m).inverse_batch(&cur, &mut real);
        let kept = real.chunks_exact(m).flat_map(|r| &r[..keep]);
        kept.map(|v| unpad.round_f64(v.to_f64())).collect()
    }

    /// Boxes whose axes run the drivers' every path: outer heads below,
    /// at and above half of a 128-point axis and the full head the symbol
    /// build transforms; 65 and 33 series (a remainder in both lane
    /// widths); three levels, where the middle axis has blocks (`lead >
    /// 1`) and fewer series than an `f32` lane group; odd radices, which
    /// run one series at a time; and rows of one sample, an odd count,
    /// half, one past half and the whole length.
    const COLUMN_CASES: [(&[usize], &[&[usize]]); 5] = [
        (&[128, 128], &[&[40, 64], &[64, 65], &[100, 1], &[128, 128]]),
        (&[128, 64], &[&[64, 32], &[127, 33]]),
        (&[16, 16, 64], &[&[16, 16, 64], &[5, 9, 31], &[8, 3, 33]]),
        (&[8, 16, 12], &[&[5, 9, 7], &[8, 16, 12]]),
        (&[6, 10], &[&[4, 5], &[6, 10]]),
    ];

    /// Forward and inverse equal the embed / transposing / extract
    /// reference bit for bit, in every tier that has a path of its own,
    /// with pad and unpad tiers that differ from it, at the portable level
    /// and the host's vector level, from buffers poisoned with NaN: no
    /// value outside the head box is read, and the inverse writes nothing
    /// past it.
    #[test]
    fn outer_axes_keep_the_bits_of_the_transposing_reference() {
        fn check<T: Real>() {
            let bits = |v: &[Complex<T>]| {
                v.iter()
                    .map(|z| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits()))
                    .collect::<Vec<_>>()
            };
            for (ci, (dims, heads)) in COLUMN_CASES.iter().enumerate() {
                let engine = RealNdFft::<T>::new(dims);
                for (case, &head) in heads.iter().enumerate() {
                    let pad = Precision::ALL[(ci + case) % 4];
                    let unpad = Precision::ALL[(ci + case + 1) % 4];
                    let what = format!("{:?} {dims:?} head {head:?} {pad}/{unpad}", T::PRECISION);
                    let data = random_box(head, 91 + case as u64);
                    let (mut spec, mut stage) = nan_buffers(&engine, head);
                    engine.forward(head, &data, pad, &mut spec, &mut stage);
                    let want = transposing_forward(&engine, head, &data, pad);
                    assert_eq!(bits(&spec), bits(&want), "{what}: forward");

                    let want = transposing_inverse(&engine, head, &spec, unpad);
                    let got = inverse_into_nan(&engine, head, &mut spec, unpad);
                    let f64_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(f64_bits(&got), f64_bits(&want), "{what}: inverse");
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
                check::<f16>();
            }
        }
        set_active_level(prev);
    }

    #[test]
    fn real_engine_plans_come_from_the_shared_cache() {
        let e = RealNdFft::<f64>::new(&[12, 30, 26]);
        assert_eq!(e.rotated_dims(), &[30, 14, 12]);
        assert_eq!(e.spectrum_len(), 12 * 30 * 14);
        assert_eq!(e.stage_len(&[5, 30, 26]), 5 * 30 * 14);
        assert!(Arc::ptr_eq(e.inner_plan(), &cache::real_plan::<f64>(26)));
        assert!(Arc::ptr_eq(e.axis_plan(0), &cache::complex_plan::<f64>(12)));
        assert!(Arc::ptr_eq(e.axis_plan(1), &cache::complex_plan::<f64>(30)));
        // The complex engine's axes are the same cached plans.
        assert!(Arc::ptr_eq(e.axis_plan(1), NdFft::<f64>::new(&[30, 4]).axis_plan(0)));
        let one = RealNdFft::<f32>::new(&[8]);
        assert_eq!((one.rotated_dims(), one.stage_len(&[8])), (&[5usize][..], 0));
    }

    #[test]
    #[should_panic(expected = "even last extent")]
    fn real_engine_rejects_an_odd_last_extent() {
        let _ = RealNdFft::<f64>::new(&[4, 7]);
    }
}
