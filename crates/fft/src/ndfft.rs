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
//! non-zero only on a *head box* `[head₀, …, head_{L−2}]` of the outer
//! axes (the innermost axis always arrives whole: the caller pads each
//! row), and its output is read only on such a box, so:
//!
//! * the innermost axis is an R2C transform ([`BatchedRealFft`]) —
//!   `h = m_{L−1}/2 + 1` bins per row instead of `m_{L−1}`;
//! * every axis is transformed only over the rows that can be non-zero
//!   (forward) or that will be read (inverse). The buffer grows one axis
//!   at a time: `[head₀, …, head_{L−2}, m_{L−1}]` reals → R2C → for
//!   `l = L−2 … 0`, rotate the last axis to the front while
//!   zero-extending axis `l` from `head_l` to `m_l`, then transform it.
//!   The all-zero rows of the embedding are never materialized and the
//!   only zero-fill is the tail `[head_l, m_l)` of the rows about to be
//!   transformed — written every call, so dirty buffers are fine;
//! * the spectrum stays in the **rotated layout** the last axis pass
//!   leaves: axes in the order `(1, 2, …, L−1, 0)`, the `L−1` axis
//!   truncated to its `h` non-redundant bins — `[h, m₀]` for two levels,
//!   `[m₁, h, m₀]` for three, plain `[h]` for one
//!   ([`RealNdFft::rotated_dims`]). A pointwise multiply does not care
//!   about element order as long as the symbol is stored the same way,
//!   so the rotations that would restore row-major order (one per
//!   direction) are simply not run.
//!
//! The inverse mirrors the forward: per outer axis `l = 0 … L−2`, inverse
//! transform the last axis, rotate the front axis back to the end keeping
//! only `head_l` of the `m_l` entries, and finish with C2R on the
//! surviving rows.

use fftmatvec_numeric::ndindex::{rotate_last_to_front, total_len, transpose_map};
use fftmatvec_numeric::{Complex, Real};

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
/// `inverse ∘ forward` is the identity on the head box. The caller owns
/// all three buffers; nothing is allocated after the per-axis scratch
/// pools warm up.
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

    /// Reals a transform over `head` reads (forward) or writes (inverse):
    /// `∏ head` rows of `dims[L−1]`.
    pub fn real_len(&self, head: &[usize]) -> usize {
        total_len(head) * self.inner.len()
    }

    /// Complex elements of the staging buffer a transform over `head`
    /// needs: the largest intermediate that is not the spectrum itself
    /// (zero for one axis, where no rotation happens).
    pub fn stage_len(&self, head: &[usize]) -> usize {
        head.first().map_or(0, |&h0| self.spectrum_len() / self.dims[0] * h0)
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
        assert_eq!(head.len(), self.outer.len(), "RealNdFft head: one extent per outer axis");
        assert!(
            head.iter().zip(&self.dims).all(|(&h, &d)| (1..=d).contains(&h)),
            "RealNdFft head {head:?} outside 1..=dims {:?}",
            self.dims
        );
        assert!(real >= self.real_len(head), "RealNdFft real buffer too short");
        assert_eq!(spec, self.spectrum_len(), "RealNdFft spectrum length");
        assert!(stage >= self.stage_len(head), "RealNdFft stage buffer too short");
    }

    /// Forward transform of the real grid that is `real` on the head box
    /// and zero elsewhere: `real` holds `∏ head` rows of `dims[L−1]`
    /// values (row-major over `head`, each row already padded by the
    /// caller; anything past [`real_len`](Self::real_len) is ignored).
    /// The spectrum lands in `spec` (exactly
    /// [`spectrum_len`](Self::spectrum_len) long) in the rotated layout;
    /// `stage` (at least [`stage_len`](Self::stage_len)) is scratch.
    /// Neither complex buffer's prior contents are read.
    pub fn forward(
        &self,
        head: &[usize],
        real: &[T],
        spec: &mut [Complex<T>],
        stage: &mut [Complex<T>],
    ) {
        self.check(head, real.len(), spec.len(), stage.len());
        // One buffer swap per outer axis; start where the last one ends
        // in `spec`.
        let (mut cur, mut next) =
            if self.outer.len() % 2 == 0 { (spec, stage) } else { (stage, spec) };
        // `len` elements of `cur` are live; its contiguous last axis has
        // extent `last`.
        let mut last = self.inner.spectrum_len();
        let mut len = total_len(head) * last;
        self.inner.forward_batch(&real[..self.real_len(head)], &mut cur[..len]);
        for l in (0..self.outer.len()).rev() {
            let (head_l, m_l) = (head[l], self.dims[l]);
            // cur is [lead, head_l, last]; next becomes [last, lead, m_l].
            let lead = len / (head_l * last);
            let ld = lead * m_l;
            for p in 0..lead {
                let (src, dst) = (&cur[p * head_l * last..], &mut next[p * m_l..]);
                transpose_map(src, last, dst, ld, head_l, last, |v| v);
            }
            len = last * ld;
            if head_l < m_l {
                for row in next[..len].chunks_exact_mut(m_l) {
                    row[head_l..].fill(Complex::zero());
                }
            }
            self.outer[l].process_batch_inplace(&mut next[..len], FftDirection::Forward);
            std::mem::swap(&mut cur, &mut next);
            last = m_l;
        }
    }

    /// Inverse of [`forward`](Self::forward), computed only on the head
    /// box: consumes the rotated spectrum in `spec` (its contents are
    /// destroyed) and writes `∏ head` rows of `dims[L−1]` reals into
    /// `real` — the rows of the full inverse transform whose outer
    /// indices lie inside `head`. `stage` is scratch as in `forward`.
    pub fn inverse(
        &self,
        head: &[usize],
        spec: &mut [Complex<T>],
        stage: &mut [Complex<T>],
        real: &mut [T],
    ) {
        self.check(head, real.len(), spec.len(), stage.len());
        let (mut cur, mut next) = (spec, stage);
        let mut len = self.spectrum_len();
        for l in 0..self.outer.len() {
            let (head_l, m_l) = (head[l], self.dims[l]);
            self.outer[l].process_batch_inplace(&mut cur[..len], FftDirection::Inverse);
            // cur is [front, lead, m_l]; next becomes [lead, head_l, front].
            let front = self.rotated[l];
            let lead = len / (front * m_l);
            for p in 0..lead {
                let (src, dst) = (&cur[p * m_l..], &mut next[p * head_l * front..]);
                transpose_map(src, lead * m_l, dst, front, front, head_l, |v| v);
            }
            len = lead * head_l * front;
            std::mem::swap(&mut cur, &mut next);
        }
        self.inner.inverse_batch(&cur[..len], &mut real[..self.real_len(head)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cache, dft};
    use fftmatvec_numeric::ndindex::{compose, decompose, strides_row_major};
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
    /// Random reals on the head box `[head.., m_last]`, in `T`.
    fn random_head<T: Real>(engine: &RealNdFft<T>, head: &[usize], seed: u64) -> Vec<T> {
        let mut rng = SplitMix64::new(seed);
        (0..engine.real_len(head)).map(|_| T::from_f64(rng.next_f64() * 2.0 - 1.0)).collect()
    }

    /// All three buffers of a transform over `head`, NaN-filled with
    /// slack past every length the engine asks for: anything a pass reads
    /// without having written it this call poisons the result.
    fn nan_buffers<T: Real>(
        engine: &RealNdFft<T>,
        head: &[usize],
    ) -> (Vec<T>, Vec<Complex<T>>, Vec<Complex<T>>) {
        let nan = T::from_f64(f64::NAN);
        (
            vec![nan; engine.real_len(head) + 3],
            vec![Complex::new(nan, nan); engine.spectrum_len()],
            vec![Complex::new(nan, nan); engine.stage_len(head) + 3],
        )
    }

    /// The complex whole-grid transform of the head data zero-embedded
    /// into `dims`, read back in the real engine's rotated half layout.
    fn rotated_half_oracle(dims: &[usize], head: &[usize], data: &[f64]) -> Vec<C64> {
        let rank = dims.len();
        let mut box_dims = head.to_vec();
        box_dims.push(dims[rank - 1]);
        let strides = strides_row_major(dims);
        let mut grid = vec![C64::new(0.0, 0.0); total_len(dims)];
        let mut idx = vec![0usize; rank];
        for (flat, &v) in data.iter().enumerate() {
            decompose(flat, &box_dims, &mut idx);
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
    /// mixed with 6, 10, 22, 26 and 70, one to four axes, heads full,
    /// ragged and degenerate.
    const REAL_CASES: [(&[usize], &[&[usize]]); 9] = [
        (&[70], &[&[]]),
        (&[64], &[&[]]),
        (&[6, 10], &[&[6], &[4], &[1]]),
        (&[22, 26], &[&[22], &[13]]),
        (&[128, 16], &[&[64]]),
        (&[4, 6, 10], &[&[4, 6], &[2, 1], &[1, 3]]),
        (&[10, 22, 8], &[&[7, 5]]),
        (&[2, 6, 4, 10], &[&[2, 6, 4], &[1, 3, 2], &[2, 1, 1]]),
        (&[4, 2, 6, 70], &[&[3, 1, 4]]),
    ];

    fn forward_tracks_the_complex_engine<T: Real>(tol: f64) {
        for (dims, heads) in REAL_CASES {
            let engine = RealNdFft::<T>::new(dims);
            for (case, &head) in heads.iter().enumerate() {
                let data = random_head(&engine, head, 31 + case as u64);
                let (mut real, mut spec, mut stage) = nan_buffers(&engine, head);
                real[..data.len()].copy_from_slice(&data);
                engine.forward(head, &real, &mut spec, &mut stage);
                let exact: Vec<f64> = data.iter().map(|v| v.to_f64()).collect();
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
            let rank = dims.len();
            let full = &dims[..rank - 1];
            let grid = random_head(&engine, full, 77);
            let (_, mut spectrum, mut stage) = nan_buffers(&engine, full);
            engine.forward(full, &grid, &mut spectrum, &mut stage);
            for &head in heads {
                let (mut real, _, mut stage) = nan_buffers(&engine, head);
                let mut spec = spectrum.clone();
                engine.inverse(head, &mut spec, &mut stage, &mut real);
                let mut box_dims = head.to_vec();
                box_dims.push(dims[rank - 1]);
                let strides = strides_row_major(dims);
                let mut idx = vec![0usize; rank];
                for (flat, got) in real[..engine.real_len(head)].iter().enumerate() {
                    decompose(flat, &box_dims, &mut idx);
                    let want = grid[compose(&idx, &strides)];
                    assert!(
                        (got - want).abs() < 1e-12,
                        "{dims:?} head {head:?} at {idx:?}: {got} vs {want}"
                    );
                }
                assert!(
                    real[engine.real_len(head)..].iter().all(|v| v.is_nan()),
                    "slack untouched"
                );
            }
        }
    }

    #[test]
    fn real_engine_plans_come_from_the_shared_cache() {
        let e = RealNdFft::<f64>::new(&[12, 30, 26]);
        assert_eq!(e.rotated_dims(), &[30, 14, 12]);
        assert_eq!(e.spectrum_len(), 12 * 30 * 14);
        assert_eq!(e.stage_len(&[5, 30]), 5 * 30 * 14);
        assert!(Arc::ptr_eq(e.inner_plan(), &cache::real_plan::<f64>(26)));
        assert!(Arc::ptr_eq(e.axis_plan(0), &cache::complex_plan::<f64>(12)));
        assert!(Arc::ptr_eq(e.axis_plan(1), &cache::complex_plan::<f64>(30)));
        // The complex engine's axes are the same cached plans.
        assert!(Arc::ptr_eq(e.axis_plan(1), NdFft::<f64>::new(&[30, 4]).axis_plan(0)));
        let one = RealNdFft::<f32>::new(&[8]);
        assert_eq!((one.rotated_dims(), one.stage_len(&[])), (&[5usize][..], 0));
    }

    #[test]
    #[should_panic(expected = "even last extent")]
    fn real_engine_rejects_an_odd_last_extent() {
        let _ = RealNdFft::<f64>::new(&[4, 7]);
    }
}
